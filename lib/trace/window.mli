(** Execution windows.

    The paper divides an application's execution into windows; within a
    window, the {e processor reference string with respect to a datum} is the
    multiset of processors that require that datum. A window stores it as
    written: per datum, one {e run} of (rank, combined count, write count)
    triples, ascending by rank, one triple per referencing rank. A read
    count is the difference of the two counts. Storage is three words per
    nonzero (rank, datum) pair plus two words per datum, whatever the
    mesh's size; every view below walks one run, so it costs O(the datum's
    nonzeros).

    Windows are built through a {!Builder}, which appends references and
    compacts them into runs once, in time linear in the references.
    {!add} also edits a stored window in place (one run replaced, O(run)),
    the form {!Sched.Problem.invalidate} re-solves. Reads never write a
    window, so any number of domains may read one at once.

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
    [data] by processor [proc]; [kind] defaults to [Read]. O(the datum's
    run): it replaces the run with a fresh one, so copies and merges that
    share the old run are unaffected. Bulk builds go through {!Builder}.
    @raise Invalid_argument on out-of-range [data], a negative [proc] or a
    negative [count]; [count = 0] is a no-op. *)
val add : ?kind:kind -> t -> data:int -> proc:int -> count:int -> unit

(** The append-then-compact form that trace generation, parsing and
    remapping build windows in. *)
module Builder : sig
  type window := t
  type t

  (** [create ~n_data] is an empty log over data ids [0 .. n_data - 1].
      @raise Invalid_argument if [n_data <= 0]. *)
  val create : n_data:int -> t

  (** [add ?kind b ~data ~proc ~count] appends one reference record,
      amortized O(1); validation and messages are {!Window.add}'s. *)
  val add : ?kind:kind -> t -> data:int -> proc:int -> count:int -> unit

  (** [build b] compacts the log into a window: two stable counting
      passes (by rank, then by datum) and one summing walk, so
      O(records + largest rank + n_data) with no hashtable. [b] may be
      dropped afterwards. *)
  val build : t -> window
end

(** [profile t data] is the {e combined} (reads + writes) reference profile
    of [data], sorted by processor rank, zero counts omitted: the paper's
    processor reference string, one cons per nonzero of the run. *)
val profile : t -> int -> (int * int) list

(** [iter_profile t data f] applies [f ~proc ~count] to every combined
    (reads + writes) reference of [data] in ascending processor-rank order —
    the same pairs as {!profile}, with no intermediate list: one walk of
    the run, allocation-free. *)
val iter_profile : t -> int -> (proc:int -> count:int -> unit) -> unit

(** [iter_kind_profile ~kind t data f] folds one kind's profile without
    materializing it: the same pairs as {!read_profile} or
    {!write_profile}, in ascending processor-rank order. O(run). *)
val iter_kind_profile :
  kind:kind -> t -> int -> (proc:int -> count:int -> unit) -> unit

(** [marginals t ~data ~cols ~rows] projects the combined reference profile
    of [data] onto the two mesh axes of a [rows]×[cols] row-major mesh:
    a [cols]-long x-marginal and a [rows]-long y-marginal weight histogram
    ([mx.(x) = Σ_{y} count (x, y)] and symmetrically). Because x-y routing
    distance is separable per axis, these marginals determine the whole
    cost vector (see {!Sched.Cost}); one walk of the run builds both, so
    O(cols + rows + nonzeros).
    @raise Invalid_argument if a referenced rank falls outside the mesh. *)
val marginals : t -> data:int -> cols:int -> rows:int -> int array * int array

(** [read_profile t data] / [write_profile t data] are the per-kind
    views, sorted by processor rank, zero counts omitted. O(run). *)
val read_profile : t -> int -> (int * int) list

val write_profile : t -> int -> (int * int) list

(** [references t data] is the total combined reference count of [data],
    kept per datum: O(1). *)
val references : t -> int -> int

(** [writes t data] is the total write count of [data]. O(run). *)
val writes : t -> int -> int

(** [total_references t] sums combined counts over all data. *)
val total_references : t -> int

(** [referenced_data t] lists data ids with at least one reference (of
    either kind), ascending. *)
val referenced_data : t -> int list

(** [is_empty t] is [true] iff no datum is referenced. *)
val is_empty : t -> bool

(** [merge a b] is a fresh window with summed per-kind profiles — the
    paper's window grouping primitive; [merge_list [a; b]].
    @raise Invalid_argument if [n_data] differs. *)
val merge : t -> t -> t

(** [merge_list ws] merges one or more windows: every triple of every
    window into one {!Builder}, compacted once, so linear in the windows'
    nonzeros (plus the largest rank and [n_data]).
    @raise Invalid_argument on the empty list, or (as {!merge}) if
    [n_data] differs. *)
val merge_list : t list -> t

(** [copy t] is an independent duplicate: O(n_data), sharing the runs,
    which are never written in place. *)
val copy : t -> t

(** [equal a b] holds when every datum has the same read and write profiles
    in both: one compare of each datum's runs. *)
val equal : t -> t -> bool

(** [max_proc t] is the largest processor rank referenced, or [-1] if the
    window is empty; used to validate windows against a mesh. O(n_data):
    the last triple of each run. *)
val max_proc : t -> int

(** [bytes t] is the heap the window holds, in bytes: its record, its two
    per-datum arrays and every run — what [Obj.reachable_words] counts for
    a window whose runs are not shared. O(n_data). *)
val bytes : t -> int

val pp : Format.formatter -> t -> unit
