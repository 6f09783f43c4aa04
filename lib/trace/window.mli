(** Execution windows.

    The paper divides an application's execution into windows; within a
    window, the {e processor reference string with respect to a datum} is the
    multiset of processors that require that datum. A window here stores, per
    datum, two dense rows indexed by processor rank and grown on demand: the
    combined (reads + writes) counts, and the write counts, allocated only
    once the datum is written; a read count is their difference. Building
    is two array bumps per reference, merging sums rows, and every profile
    is an ascending scan. Windows are mutable while being built and are
    treated as immutable afterwards.

    References carry an access {!kind}. The paper's cost model does not
    distinguish reads from writes — both cost the distance to the datum's
    center, and {!profile} (the combined view) is what every scheduler
    prices — but the split matters to coherence-aware extensions
    ({!Sched.Replicated}): reads may be served by any copy, writes pin the
    datum to a single copy. [add] defaults to [Read], so kind-oblivious
    code keeps working. *)

type kind = Read | Write

type t

(** [create ~n_data] is an empty window over data ids [0 .. n_data - 1].
    @raise Invalid_argument if [n_data <= 0]. *)
val create : n_data:int -> t

val n_data : t -> int

(** [add ?kind t ~data ~proc ~count] records [count] further references to
    [data] by processor [proc]; [kind] defaults to [Read].
    @raise Invalid_argument on out-of-range [data] or negative [count];
    [count = 0] is a no-op. *)
val add : ?kind:kind -> t -> data:int -> proc:int -> count:int -> unit

(** [profile t data] is the {e combined} (reads + writes) reference profile
    of [data], sorted by processor rank, zero counts omitted. This is the
    paper's processor reference string, read straight off the dense
    combined row; the per-kind views below subtract the dense write row
    from it. *)
val profile : t -> int -> (int * int) list

(** [iter_profile t data f] applies [f ~proc ~count] to every combined
    (reads + writes) reference of [data] in ascending processor-rank order —
    the same pairs as {!profile}, with no intermediate list. Windows keep a
    dense per-datum weight row (maintained incrementally by {!add}, summed
    by {!merge}) precisely so hot folds can run allocation-free. *)
val iter_profile : t -> int -> (proc:int -> count:int -> unit) -> unit

(** [iter_kind_profile ~kind t data f] folds one kind's profile without
    materializing it: the same pairs as {!read_profile} or
    {!write_profile}, in ascending processor-rank order. *)
val iter_kind_profile :
  kind:kind -> t -> int -> (proc:int -> count:int -> unit) -> unit

(** [marginals t ~data ~cols ~rows] projects the combined reference profile
    of [data] onto the two mesh axes of a [rows]×[cols] row-major mesh:
    a [cols]-long x-marginal and a [rows]-long y-marginal weight histogram
    ([mx.(x) = Σ_{y} count (x, y)] and symmetrically). Because x-y routing
    distance is separable per axis, these marginals determine the whole
    cost vector (see {!Sched.Cost}); one O(P) pass over the dense row
    builds both.
    @raise Invalid_argument if a referenced rank falls outside the mesh. *)
val marginals : t -> data:int -> cols:int -> rows:int -> int array * int array

(** [read_profile t data] / [write_profile t data] are the per-kind
    views, sorted by processor rank, zero counts omitted. *)
val read_profile : t -> int -> (int * int) list

val write_profile : t -> int -> (int * int) list

(** [references t data] is the total combined reference count of [data]. *)
val references : t -> int -> int

(** [writes t data] is the total write count of [data]. *)
val writes : t -> int -> int

(** [total_references t] sums combined counts over all data. *)
val total_references : t -> int

(** [referenced_data t] lists data ids with at least one reference (of
    either kind), ascending. *)
val referenced_data : t -> int list

(** [is_empty t] is [true] iff no datum is referenced. *)
val is_empty : t -> bool

(** [merge a b] is a fresh window with summed per-kind profiles — the
    paper's window grouping primitive. @raise Invalid_argument if [n_data]
    differs. *)
val merge : t -> t -> t

(** [merge_list ws] merges one or more windows: one copy of the first,
    then one row sum per further window, so linear in the windows' rows.
    @raise Invalid_argument on the empty list, or (as {!merge}) if
    [n_data] differs. *)
val merge_list : t list -> t

(** [copy t] is an independent duplicate. *)
val copy : t -> t

(** [equal a b] holds when every datum has the same read and write profiles
    in both. *)
val equal : t -> t -> bool

(** [max_proc t] is the largest processor rank referenced, or [-1] if the
    window is empty; used to validate windows against a mesh. *)
val max_proc : t -> int

val pp : Format.formatter -> t -> unit
