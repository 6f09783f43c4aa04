(** The scheduling problem context shared by every algorithm.

    A [Problem.t] is the only way a scheduler is given an instance: the
    mesh, the trace and the capacity policy (the paper's rule is
    {!headroom_policy} at headroom 2), plus the shared state that makes
    running several schedulers on one instance cheap:

    - the session's metric ({!relaxation}): the mesh's own x-y routing
      distance, worked out from the ranks, on a healthy or node-faulted
      session, so no O(size²) rank-to-rank matrix exists; a BFS table
      only under link faults;
    - one cache of immutable cost {e rows} per (datum, window), built
      lazily: [Axis_sum (cx, cy)] from the axis marginals on a healthy
      or node-faulted session (x-y routing distance splits per axis, so
      a row is cols + rows words, not P), [Full] only under link faults,
      whose BFS distances do not split. Every window that does not
      reference a datum reads one shared all-zero row. The merged window
      is window index {!n_windows}: one more column of the same caches;
    - per-(datum, window) axis marginals and optimal centers, filled
      lazily and kept for every later algorithm, sweep or refinement pass
      on the same instance. No processor list is ever stored, nor any
      per-target order: a bounded scheduler takes the list's head with
      room straight off the cached row ({!Processor_list.choose}), and
      the grouping repair walks the mesh's distance shells
      ({!Processor_list.place_near}) or, under link faults, takes it off
      the BFS table's row;
    - a [jobs] knob sizing the {!Engine} domain pool used to fill those
      caches and to fan independent per-datum work out across cores.

    Results are deterministic by construction: parallel phases only compute
    pure per-datum values merged by index, and every capacity-allocation
    loop still runs serially in the algorithm's documented order — a
    [Problem.t] at [jobs = 8] yields byte-identical schedules to [jobs = 1].

    Thread-safety contract for the caches: every cache cell is owned by a
    single (datum, window) pair — a row and its stale byte, a
    marginal/center cell. Parallel phases must partition the
    cells across domains so each has one writer; both partitions in use
    are safe: per-datum tasks ({!prefetch_referenced}, {!prefetch_centers},
    {!prefetch_merged} — a task owns a datum's whole row of cells) and
    per-window tasks ({!prefetch_all} — a task owns one window's column).
    A cached row is never written again, so it may be read from any
    domain. Everything else in [t] is immutable after {!create}. *)

(** How much data each processor's local memory holds. [Unbounded] models
    infinite memories; [Bounded c] gives every processor [c] slots (the
    paper's experiments use twice the minimum — see
    {!Pim.Memory.capacity_for}). Equal to {!Context.capacity_policy}. *)
type capacity_policy = Context.capacity_policy = Unbounded | Bounded of int

type t

(** Cost entry recorded for a (center, referencing rank) pair that link
    faults have disconnected — large enough that any connected placement
    wins, small enough that profile-weighted sums never overflow. *)
val unreachable_cost : int

(** [create ?policy ?jobs ?fault mesh trace] builds the context.
    [policy] defaults to [Unbounded]; [jobs] (default [1]) sizes the domain
    pool, and {!Engine.default_jobs} picks a machine-fitted value; cost
    rows are built by the separable kernel ({!Cost.axis_cost}) in
    O(cols + rows + refs) from axis marginals; [fault] (default
    {!Pim.Fault.none}) degrades the array — dead processors are banned in
    every memory tracker and masked out of every argmin (their routers
    stay alive, so distances are unchanged), and
    dead links rebuild all distances by BFS over the surviving topology,
    which moves rows and the layered DP off the separable path (counters
    [cost.fault_tables] / [cost.fault_downgrades]). With [Fault.none] every
    code path is byte-identical to a fault-oblivious context.
    @raise Invalid_argument if [Bounded c] with [c < 0], [jobs < 1], the
    fault does not fit the mesh, or the fault kills every processor. *)
val create :
  ?policy:capacity_policy ->
  ?jobs:int ->
  ?fault:Pim.Fault.t ->
  Pim.Mesh.t ->
  Reftrace.Trace.t ->
  t

(** [headroom_policy ~headroom ~processors trace] is the paper's capacity
    rule: every processor gets [headroom] times the fewest slots that
    hold the trace's data on [processors] processors
    ({!Pim.Memory.capacity_for}); [headroom = 0] is [Unbounded]. The
    paper's experiments use [headroom = 2]; a multi-array group passes
    its aggregate processor count.
    @raise Invalid_argument on a negative [headroom] or an empty data
    space. *)
val headroom_policy :
  headroom:int -> processors:int -> Reftrace.Trace.t -> capacity_policy

(** [of_context ?policy ?jobs ?fault ctx] opens a {e request-scoped
    session} over a shared immutable {!Context.t}: fresh empty caches,
    the fault overlay built here, and [policy]/[jobs] defaulting to the
    context's values. The mesh, trace, windows and merged window are
    shared with [ctx] — and with every other session on
    it, from any domain: the context is never written after creation.
    This is the entry point a long-lived service uses so per-request
    state stays private while instance preprocessing stays hot.
    @raise Invalid_argument under the same conditions as {!create}. *)
val of_context :
  ?policy:capacity_policy -> ?jobs:int -> ?fault:Pim.Fault.t -> Context.t -> t

(** [context t] is the shared immutable half the session was opened over. *)
val context : t -> Context.t

(** [max_arena_bytes t] is {!Context.t.max_arena_bytes}: the session's
    dense worst case (every row [Full], as under link faults) — the
    admission-control currency of the serve path. *)
val max_arena_bytes : t -> int

val mesh : t -> Pim.Mesh.t
val trace : t -> Reftrace.Trace.t
val policy : t -> capacity_policy

(** [capacity t] is [Some c] iff the policy is [Bounded c]. *)
val capacity : t -> int option

val jobs : t -> int

(** [fault t] is the fault model the context was built over
    ({!Pim.Fault.none} for a healthy array). *)
val fault : t -> Pim.Fault.t

(** [set_cancel t c] arms cooperative cancellation for the session:
    every cache funnel — {!row} (and so {!cost_entry}, {!layer_rows},
    {!prefetch_all}), {!marginals} and {!optimal_center}, hit or miss — and {!solve_datum} poll [c] and
    raise {!Cancel.Expired} once it expires (deadline passed on the
    monotonic clock, or {!Cancel.cancel} called from any domain). Polls
    sit at per-cell / per-datum granularity, so a solve over a cold or a
    warm session overruns its budget by at most one cell's work; against
    the default {!Cancel.none} a poll costs a pointer compare. Call from
    the serial admission path before the solve starts — parallel phases
    only read the token. A session
    whose solve raised [Expired] has internally consistent but partial
    caches; re-arm it with a fresh token (or {!Cancel.none}) before
    reusing it, or discard it. *)
val set_cancel : t -> Cancel.t -> unit

(** [cancel_token t] is the token the session polls ({!Cancel.none}
    until {!set_cancel}). *)
val cancel_token : t -> Cancel.t

(** [rank_alive t rank] is [false] iff the fault killed [rank]'s
    compute/memory (O(1) mask read — safe in parallel phases). *)
val rank_alive : t -> int -> bool

(** [alive_count t] is the number of ranks that can host data. *)
val alive_count : t -> int

(** [with_jobs t jobs] / [with_policy t policy] are [t] with one field
    replaced; all caches are shared with [t] (cost vectors do not depend on
    either field). *)
val with_jobs : t -> int -> t

val with_policy : t -> capacity_policy -> t

(** [with_fault_patch t fault] is [t] with the fault replaced, over the
    {e same} shared {!Context.t} — how the reschedule-on-failure path and
    the serve daemon degrade a problem mid-run. It uses {e dirty-row
    invalidation} instead of a cold start: the new session shares [t]'s
    marginal caches and copies its cache arrays, so it holds [t]'s
    immutable rows; only the rows whose cost entries can actually differ
    under the new fault are dropped (counter [problem.rows_invalidated])
    for a rebuild on next touch (counter [problem.rows_refilled]).

    Node faults keep routers, so a pure node-fault change dirties {e no}
    row — every row carries over; only the alive mask and argmins adjust
    (cached argmins survive when the dead set only grew and the cached
    center is still alive). A link-fault change
    rebuilds the BFS distance table (reusing [t]'s when the dead-link set
    is unchanged) and dirties exactly the rows whose window profile
    touches a rank with a changed distance column; entering link faults
    spells the clean axis-sum rows out as [Full] rows of the same
    values.

    [t] is never written through: the two sessions share rows, never
    cache arrays, so both stay independently correct — answers from the
    patched session are byte-identical to a fresh [of_context ~fault]
    session (pinned by [test/test_incremental.ml]). Returns [t] itself
    when [fault] equals [t]'s fault.
    @raise Invalid_argument when [fault] does not fit the mesh or leaves
    no processor alive. *)
val with_fault_patch : t -> Pim.Fault.t -> t

(** [invalidate t ~window] tells the session that the contents of window
    [window] were edited in place (references {e added} via
    {!Reftrace.Window.add} after the context was built): every cached
    value derived from that window — marginals, row, argmin — is
    dropped for every datum the window now references, so
    subsequent reads rebuild from the edited profile and agree
    byte-for-byte with a freshly built session over the same context.
    The memoized {e merged} window is not
    recomputed (it is fixed at {!Context.create} time for every session,
    cold or warm, so all sessions stay consistent).
    @raise Invalid_argument when [window] is out of range. *)
val invalidate : t -> window:int -> unit

val space : t -> Reftrace.Data_space.t
val n_data : t -> int
val n_windows : t -> int

(** [window t i] is the [i]-th execution window (array-backed, O(1)). *)
val window : t -> int -> Reftrace.Window.t

(** [merged t] is the whole-execution window, computed once per context.
    The per-(datum, window) accessors below serve it as window index
    [n_windows t]. *)
val merged : t -> Reftrace.Window.t

(** [distance t a b] is the session's move distance: {!Pim.Mesh.distance}
    on a healthy or node-faulted session, the BFS table's entry under link
    faults. It allocates nothing and is safe in parallel phases. *)
val distance : t -> int -> int -> int

(** [relaxation t] is how the layered DP relaxes a move on this session,
    chosen once when the session is opened or patched: the mesh's shape
    ({!Pathgraph.Layered.Axes}, so the DP never needs a rank-to-rank
    matrix) on a healthy or node-faulted session, the BFS distance table
    ({!Pathgraph.Layered.Table}) under link faults. *)
val relaxation : t -> Pathgraph.Layered.relaxation

(** A cost row: {!Pathgraph.Layered.row}. *)
type row = Pathgraph.Layered.row =
  | Full of int array
  | Axis_sum of int array * int array

(** The accessors below take [window] in [0 .. n_windows t]; index
    [n_windows t] is the merged window. *)

(** [marginals t ~window ~data] is {!Reftrace.Window.marginals} for the
    pair, cached — the separable kernel's input, also summed directly by
    {!Grouping} to price candidate merges without materializing merged
    windows. A {!row} build reads this cache but does not fill it: the
    row keeps all a later read needs. The returned arrays are shared:
    treat them as read-only. *)
val marginals : t -> window:int -> data:int -> int array * int array

(** [row t ~window ~data] is the datum's cost row in the window, cached
    and immutable: entry [c] ({!Pathgraph.Layered.entry}) is
    {!Cost.reference_cost} of serving the window from [c] — fault-priced
    under link faults. [Axis_sum] on a healthy or node-faulted session,
    [Full] under link faults; a window that does not reference the datum
    reads the session's one shared zero row. *)
val row : t -> window:int -> data:int -> row

(** [cost_entry t ~window ~data center] is entry [center] of {!row} —
    the workhorse accessor for incremental evaluators (annealing deltas,
    trajectory sums). *)
val cost_entry : t -> window:int -> data:int -> int -> int

(** [cost_vector t ~window ~data] is every entry of {!row} as a {e fresh}
    array — callers may mutate it freely. Prefer {!row} or {!cost_entry}
    on hot paths. *)
val cost_vector : t -> window:int -> data:int -> int array

(** [layer_rows t ~data] is the datum's row in every window but the
    merged one — exactly the block rows {!Pathgraph.Layered.solve}
    consumes. *)
val layer_rows : t -> data:int -> row array

(** [optimal_center t ~window ~data] is the paper's Definition 4 for the
    pair — the minimum-cost center, lowest rank on ties — cached. On a
    healthy session it is the two axis minima of the axis-sum row
    (counter [cost.argmin_fast]), in the same order as the full-vector
    ascending argmin, so unbounded schedulers taking it place every datum
    exactly where the vector route did. A faulted session takes
    {!Pathgraph.Layered.argmin} masked by the alive row (counter
    [cost.argmin_masked]): the same axis minima when that rank is alive,
    one ascending scan over alive ranks otherwise. *)
val optimal_center : t -> window:int -> data:int -> int

(** [by_total_references t] is {!Ordering.by_total_references} served from
    the cached merged window — the canonical heaviest-first assignment
    order. Serial phases only. *)
val by_total_references : t -> int list

(** [path_cost t ~data pairs] is {!Cost.path_cost} with window {e indices}
    instead of window values, reading row entries and the distance
    tables: Σ entry(center) over the [(window, center)] pairs plus
    movement between consecutive centers. The cheap way to reconstruct or
    audit a per-datum schedule cost on a context that has already priced
    the datum.
    @raise Invalid_argument on the empty list. *)
val path_cost : t -> data:int -> (int * int) list -> int

(** [trajectory_cost t ~data centers] is {!path_cost} over {e all} windows
    in order: [centers.(w)] is the datum's center in window [w]. The form
    {!Refine}'s sweeps evaluate.
    @raise Invalid_argument unless [Array.length centers = n_windows t]. *)
val trajectory_cost : t -> data:int -> int array -> int

(** [alive_admit t] is the alive mask as {!Pathgraph.Layered.solve}
    admit rows (every layer the same row, byte [rank] is ['\000'] iff
    the fault killed [rank]), or [None] when no node is dead. *)
val alive_admit : t -> (int -> Bytes.t) option

(** [solve_datum ?admit t ~data] runs the per-datum layered DP with the
    fault folded in: one {!Pathgraph.Layered.solve} block over
    {!layer_rows}, relaxed by {!relaxation} (the mesh's shape, or the BFS
    distance table under link faults). [admit layer] is layer [layer]'s
    admit row ({!Pathgraph.Layered.solve}'s contract: byte [rank] ['\000'] masks
    [rank] out; asked in up to two ascending passes, each row read before
    the next is asked for); node faults intersect it with {!alive_admit}
    in one buffer shared by every layer. Returns [None] when [admit]
    leaves some layer empty (never on an unfiltered healthy or node-fault
    context — at least one rank is always alive). The one entry point
    GOMCDS, {!Refine} and {!Bounds} all price trajectories through. *)
val solve_datum :
  ?admit:(int -> Bytes.t) ->
  t ->
  data:int ->
  (int * int array) option

(** [prefetch_all t] builds every (datum, window) row on the domain
    pool, window-major: each pool task builds one window's column across
    all data (counter [cost.batch_fills]: one per task that built an
    axis-sum row). Bounded-memory algorithms and window-major sweeps
    ({!Refine}, {!Grouping}) call this so their serial loops only
    read. *)
val prefetch_all : t -> unit

(** [prefetch_referenced t] fills, in parallel, the rows of every
    (datum, window) pair where the window references the datum, plus the
    merged window's for data never referenced — exactly what LOMCDS's
    bounded serial loop reads (span [problem.prefetch_referenced]). *)
val prefetch_referenced : t -> unit

(** [prefetch_centers t] fills, in parallel, the {!optimal_center} cache
    for every referencing (datum, window) pair plus the merged window's
    for data never referenced — the working set of the unbounded LOMCDS
    walk. *)
val prefetch_centers : t -> unit

(** [prefetch_merged t] fills every datum's merged-window row on the
    pool (SCDS's working set; span [problem.prefetch_merged]). *)
val prefetch_merged : t -> unit

(** [check_feasible t ~who] raises the algorithms' historical
    [Invalid_argument] ("[who]: %d data cannot fit in %d processors of
    capacity %d") when a bounded policy cannot hold the data space. *)
val check_feasible : t -> who:string -> unit

(** [fresh_memory t] is a new occupancy tracker matching the policy
    (unbounded or [Bounded c]); feasibility is {e not} checked here. *)
val fresh_memory : t -> Pim.Memory.t
