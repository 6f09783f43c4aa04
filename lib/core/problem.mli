(** The scheduling problem context shared by every algorithm.

    A [Problem.t] bundles what used to be threaded through every signature
    separately — the mesh, the trace and a [?capacity:int] optional — and
    adds the shared state that makes running several schedulers on one
    instance cheap:

    - per-axis mesh distance tables ({!Pim.Mesh.x_distance_table}), so
      distance probes are two array reads; no O(size²) rank-to-rank matrix
      exists in the context;
    - a flat compact {e cost arena} per datum: one bigarray slab holding a
      row per referencing window plus one shared all-zero row that every
      non-referencing window points at, filled lazily per (datum, window)
      row. The slab is allocated uninitialized — no memory traffic is
      spent zeroing rows that are either written in full or never
      materialized. Consumers read through {!cost_entry}/{!layer_slab}
      (allocation-free) or {!cost_vector} (a copy);
    - per-(datum, window) axis marginals, optimal centers and
      capacity-fallback candidate lists, filled lazily and kept for every
      later algorithm, sweep or refinement pass on the same instance;
    - a [jobs] knob sizing the {!Engine} domain pool used to fill those
      caches and to fan independent per-datum work out across cores.

    Results are deterministic by construction: parallel phases only compute
    pure per-datum values merged by index, and every capacity-allocation
    loop still runs serially in the algorithm's documented order — a
    [Problem.t] at [jobs = 8] yields byte-identical schedules to [jobs = 1].

    Thread-safety contract for the caches: every cache cell is owned by a
    single (datum, window) pair — an arena row and its filled byte, a
    marginal/center/candidate cell. Parallel phases must partition the
    cells across domains so each has one writer; both partitions in use
    are safe: per-datum tasks ({!prefetch_referenced}, {!prefetch_centers}
    — a task owns a datum's whole row of cells) and per-window tasks
    ({!prefetch_all}'s batched window-major fill — a task owns one
    window's column, after a serial pre-pass has created every arena so
    no task swaps a datum-level slab). Everything else in [t] is immutable
    after {!create}. *)

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
    pool, and {!Engine.default_jobs} picks a machine-fitted value; arena
    rows are built by the separable kernel ({!Cost}) in O(P + refs) from
    axis marginals; [fault] (default {!Pim.Fault.none}) degrades
    the array — dead processors leave every candidate list, memory tracker
    and argmin (their routers stay alive, so distances are unchanged), and
    dead links rebuild all distances by BFS over the surviving topology,
    which moves rows and the layered DP off the separable fast path (counters
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

(** [of_capacity ?capacity ?jobs mesh trace] is the bridge from the
    old optional-argument convention: [None] ↦ [Unbounded], [Some c] ↦
    [Bounded c]. Deprecated shims go through this. *)
val of_capacity :
  ?capacity:int ->
  ?jobs:int ->
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
    session} over a shared immutable {!Context.t}: fresh empty caches and
    arenas, the fault overlay built here, and [policy]/[jobs] defaulting
    to the context's values. The mesh, trace, windows, merged window and
    axis tables are shared with [ctx] — and with every other session on
    it, from any domain: the context is never written after creation.
    This is the entry point a long-lived service uses so per-request
    state stays private while instance preprocessing stays hot.
    @raise Invalid_argument under the same conditions as {!create}. *)
val of_context :
  ?policy:capacity_policy -> ?jobs:int -> ?fault:Pim.Fault.t -> Context.t -> t

(** [context t] is the shared immutable half the session was opened over. *)
val context : t -> Context.t

(** [max_arena_bytes t] is {!Context.t.max_arena_bytes}: the session's
    cost-arena footprint with every row forced — the admission-control
    currency of the serve path. *)
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
    every fill/solve funnel — {!solve_datum}, the arena row fills behind
    {!cost_entry}/{!layer_slab}/{!prefetch_all}, the {!candidates} and
    {!optimal_center} miss paths — polls [c] and raises
    {!Cancel.Expired} once it expires (deadline passed on the monotonic
    clock, or {!Cancel.cancel} called from any domain). Polls sit at
    per-row / per-datum granularity, so a solve overruns its budget by
    at most one row's work; against the default {!Cancel.none} a poll
    costs a pointer compare. Call from the serial admission path before
    the solve starts — parallel phases only read the token. A session
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

(** [with_fault t fault] is a {e fresh session} (empty caches) with the
    fault replaced — cost entries, candidate orders and distances all
    depend on the fault — over the {e same} shared {!Context.t}, so the
    axis tables and trace preprocessing carry over untouched. [t] itself
    when both the old and new fault are {!Pim.Fault.none}. How the
    reschedule-on-failure path degrades a problem mid-run — see
    {!with_fault_patch} for the incremental variant that carries clean
    cache rows over. *)
val with_fault : t -> Pim.Fault.t -> t

(** [with_fault_patch t fault] is {!with_fault} with {e dirty-row
    invalidation} instead of a cold start: the new session shares [t]'s
    marginal caches and aliases its arena slabs copy-on-write, and only
    the rows whose cost entries can actually differ under the new fault
    are marked dirty (counter [problem.rows_invalidated]) for refill on
    next touch (counter [problem.rows_refilled]).

    Node faults keep routers, so a pure node-fault change dirties {e no}
    row — every slab byte carries over; only the alive mask, argmins and
    candidate orders adjust (cached argmins survive when the dead set only
    grew and the cached center is still alive; candidate lists survive a
    monotone change filtered to the new alive set). A link-fault change
    rebuilds the BFS distance table (reusing [t]'s when the dead-link set
    is unchanged) and dirties exactly the rows whose window profile
    touches a rank with a changed distance column.

    [t] is never written through: a dirty row is refilled only after the
    datum's slab has been privatized, so [t] and the patched session stay
    independently correct — answers from the patched session are
    byte-identical to a fresh [of_context ~fault] session (pinned by
    [test/test_incremental.ml]). Returns [t] itself when [fault] equals
    [t]'s fault.
    @raise Invalid_argument under the same conditions as {!with_fault}. *)
val with_fault_patch : t -> Pim.Fault.t -> t

(** [invalidate t ~window] tells the session that the contents of window
    [window] were edited in place (references {e added} via
    {!Reftrace.Window.add} after the context was built): every cached
    value derived from that window — marginals, arena row, argmin,
    candidate list — is dropped or marked dirty for every datum the
    window now references, so subsequent reads refill from the edited
    profile and agree byte-for-byte with a freshly built session over the
    same context. A datum whose first reference in [window] appeared
    after its slab layout was fixed has its whole arena dropped so the
    window→row map is recomputed. The memoized {e merged} window is not
    recomputed (it is fixed at {!Context.create} time for every session,
    cold or warm, so all sessions stay consistent).
    @raise Invalid_argument when [window] is out of range. *)
val invalidate : t -> window:int -> unit

val space : t -> Reftrace.Data_space.t
val n_data : t -> int
val n_windows : t -> int

(** [window t i] is the [i]-th execution window (array-backed, O(1)). *)
val window : t -> int -> Reftrace.Window.t

(** [merged t] is the whole-execution window, computed once per context. *)
val merged : t -> Reftrace.Window.t

(** [distance t a b] is [Pim.Mesh.distance] served from the cached per-axis
    tables (two reads — safe in parallel phases). *)
val distance : t -> int -> int -> int

(** [relaxation t] is how the layered DP relaxes a move on this session
    — the one place that decision is made: the context's per-axis tables
    ({!Pathgraph.Layered.Axes}, so the DP never needs a rank-to-rank
    matrix) on a healthy or node-faulted session, the BFS distance table
    ({!Pathgraph.Layered.Table}) under link faults. Read-only. *)
val relaxation : t -> Pathgraph.Layered.relaxation

(** [marginals t ~window ~data] is {!Reftrace.Window.marginals} for the
    pair, cached — the separable kernel's input, also summed directly by
    {!Grouping} to price candidate merges without materializing merged
    windows. The returned arrays are shared: treat them as read-only. *)
val marginals : t -> window:int -> data:int -> int array * int array

(** [merged_marginals t ~data] is the marginal pair against {!merged}. *)
val merged_marginals : t -> data:int -> int array * int array

(** [cost_entry t ~window ~data center] is the datum's communication cost
    served from [center] in the window — one arena read after the row's
    first touch, no allocation. The workhorse accessor for incremental
    evaluators (annealing deltas, trajectory sums). *)
val cost_entry : t -> window:int -> data:int -> int -> int

(** [cost_vector t ~window ~data] is {!Cost.cost_vector} for the pair as a
    {e fresh copy} of the arena row — callers may mutate it freely. Prefer
    {!cost_entry}/{!layer_slab} on hot paths. *)
val cost_vector : t -> window:int -> data:int -> int array

(** [merged_vector t ~data] is the cost vector against {!merged}, cached
    (shared array — treat as read-only). *)
val merged_vector : t -> data:int -> int array

(** [optimal_center t ~window ~data] is the paper's Definition 4 for the
    pair — the minimum-cost center, lowest rank on ties — cached, and on
    a healthy session computed {e without} touching the cost vector:
    {!Cost.argmin_of_marginals} reads the two axis marginals in
    O(cols + rows) (counter [cost.argmin_fast]), in the same order as
    the full-vector ascending argmin, so unbounded schedulers taking this
    fast path place every datum exactly where the vector route did. A
    faulted session scans the arena row over alive ranks (counter
    [cost.argmin_masked]). *)
val optimal_center : t -> window:int -> data:int -> int

(** [merged_optimal_center t ~data] is {!optimal_center} against
    {!merged}. *)
val merged_optimal_center : t -> data:int -> int

(** [candidates t ~window ~data] is the paper's processor list for the
    pair: ranks sorted by cost entry, ties by rank
    ({!Processor_list.of_costs}), cached. On the healthy separable path
    the order is computed straight from the axis costs without forcing
    the arena row ({e fill-skip}) — bounded [Scds]/[Lomcds] runs that
    only consume candidate lists never materialize a slab. The order is
    identical either way (same cost values). *)
val candidates : t -> window:int -> data:int -> int list

(** [merged_candidates t ~data] is the processor list against {!merged}. *)
val merged_candidates : t -> data:int -> int list

(** [ranks_near t ~target] is every rank sorted by distance from [target]
    (ties by rank), cached — the grouping repair's fallback order. Serial
    phases only: the cache row is not per-datum. *)
val ranks_near : t -> target:int -> int list

(** [by_total_references t] is {!Ordering.by_total_references} served from
    the cached merged window — the canonical heaviest-first assignment
    order. Serial phases only. *)
val by_total_references : t -> int list

(** [path_cost t ~data pairs] is {!Cost.path_cost} with window {e indices}
    instead of window values, reading arena entries and the distance
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

(** [layer_slab t ~data] forces every window row of the datum's arena
    buffer and returns [(slab, offsets)]: window [w]'s vector occupies
    [slab.{offsets.(w)} .. slab.{offsets.(w) + P - 1}] with
    [P = Pim.Mesh.size]. The slab is compact — windows that never
    reference the datum all share the reserved zero row at offset 0, so
    the buffer holds one row per {e referencing} window plus one — and is
    a bigarray allocated uninitialized (each referencing row is written in
    full before it is readable; only the zero row is cleared eagerly).
    Exactly the block form {!Pathgraph.Layered.solve} consumes; treat
    both as read-only. *)
val layer_slab : t -> data:int -> Pathgraph.Layered.buffer * int array

(** [solve_datum ?allowed t ~data] runs the per-datum layered DP with the
    fault folded in: one {!Pathgraph.Layered.solve} block over the arena
    slab, relaxed by {!relaxation} (the axis tables, or the BFS distance
    table under link faults); node faults intersect [allowed] with the
    alive mask. Returns [None] when [allowed]
    leaves some layer empty (never on an unfiltered healthy or node-fault
    context — at least one rank is always alive). The one entry point
    GOMCDS, {!Refine} and {!Bounds} all price trajectories through. *)
val solve_datum :
  ?allowed:(layer:int -> int -> bool) ->
  t ->
  data:int ->
  (int * int array) option

(** [prefetch_data t ~data] forces every window row of one datum's arena
    buffer — the unit of work a pool domain claims. *)
val prefetch_data : t -> data:int -> unit

(** [prefetch_all t] fills every (datum, window) arena row on the domain
    pool, window-major: after a serial pre-pass that creates every arena
    (and privatizes shared slabs still holding dirty rows), each pool
    task fills one window's rows across all data in a single batched
    marginals pass ({!Cost.fill_window_batch} — one axis/prefix-sum
    scratch set per window). Bounded-memory algorithms and window-major
    sweeps ({!Refine}, {!Grouping}) call this so their serial loops only
    read. *)
val prefetch_all : t -> unit

(** [window_rows t ~window] forces every datum's arena row for [window]
    (batched, as one {!prefetch_all} task would) and returns
    [(slabs, offs)] with the entry for (data, rank) at
    [slabs.(data).{offs.(data) + rank}] — the window-major view
    {!Online}'s walk and {!Annealing}'s delta evaluator batch their
    probes through instead of a {!cost_entry} dispatch per probe. Treat
    both arrays as read-only; they stay valid until the row is
    invalidated ({!invalidate} / {!with_fault_patch}). *)
val window_rows :
  t -> window:int -> Pathgraph.Layered.buffer array * int array

(** [prefetch_referenced t] fills, in parallel, arena rows {e and}
    candidate lists for every (datum, window) pair where the window
    references the datum, plus the merged row for data never referenced —
    exactly what LOMCDS's bounded serial loop reads. *)
val prefetch_referenced : t -> unit

(** [prefetch_centers t] fills, in parallel, the {!optimal_center} cache
    for every referencing (datum, window) pair plus
    {!merged_optimal_center} for data never referenced — the vector-free
    working set of the unbounded LOMCDS fast path. *)
val prefetch_centers : t -> unit

(** [prefetch_merged t] fills every datum's merged vector and candidate
    list on the pool (SCDS's working set). *)
val prefetch_merged : t -> unit

(** [check_feasible t ~who] raises the algorithms' historical
    [Invalid_argument] ("[who]: %d data cannot fit in %d processors of
    capacity %d") when a bounded policy cannot hold the data space. *)
val check_feasible : t -> who:string -> unit

(** [fresh_memory t] is a new occupancy tracker matching the policy
    (unbounded or [Bounded c]); feasibility is {e not} checked here. *)
val fresh_memory : t -> Pim.Memory.t
