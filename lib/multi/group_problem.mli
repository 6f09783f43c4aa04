(** The multi-array scheduling problem: a group, a global trace, and one
    {!Sched.Problem} session per member.

    A [Group_problem.t] is the group-tier analogue of {!Sched.Problem}:
    it splits the global trace into per-member {e projections} (member
    [m]'s projection keeps every window — indices stay aligned — but
    only the references issued from [m]'s processors, localized to
    member ranks) and opens an ordinary per-member problem session over
    each, so the whole separable-kernel machinery (marginal caches,
    axis-sum cost rows, the mesh-shaped DP relaxation) is reused per
    array, unchanged.

    On top it caches the {e member weight} tables the cross-array layer
    consumes: [W(w, d, m)] — the total reference count datum [d]
    receives from member [m]'s processors in window [w]. Under the flat
    group metric, hosting [d] in member [i] during window [w] adds
    exactly [Σ_{j ≠ i} W(w, d, j) · move_cost(j, i)] on top of the
    member-local cost — a {e constant per member}, which is why array
    assignment is a small exact problem over these sums (DESIGN.md §12).

    A 1-member group skips projection entirely: the single sub-problem
    is opened over the {e original} trace value, so the degenerate path
    is byte-identical to the plain single-mesh path. *)

type t

(** [create ?policy ?jobs ?fault group trace] builds the
    problem. Defaults mirror {!Sched.Problem.create}: [Unbounded],
    [jobs = 1], {!Group_fault.none}. The trace references
    {e global} ranks.
    @raise Invalid_argument if the trace references ranks outside the
    group, the fault does not fit, or a bounded policy cannot hold the
    data (see {!check_feasible}). *)
val create :
  ?policy:Sched.Problem.capacity_policy ->
  ?jobs:int ->
  ?fault:Group_fault.t ->
  Array_group.t ->
  Reftrace.Trace.t ->
  t

val group : t -> Array_group.t
val trace : t -> Reftrace.Trace.t
val policy : t -> Sched.Problem.capacity_policy
val jobs : t -> int
val fault : t -> Group_fault.t
val n_data : t -> int
val n_windows : t -> int
val n_members : t -> int

(** [with_fault t fault] is the problem over the same group and trace
    with the fault replaced — member sessions are patched over their
    shared contexts ({!Sched.Problem.with_fault_patch}), so trace
    projections carry over untouched. How the
    reschedule-on-failure path degrades a group problem mid-run. *)
val with_fault : t -> Group_fault.t -> t

(** [sub t m] is member [m]'s problem session (over the projection). *)
val sub : t -> int -> Sched.Problem.t

(** [member_weight t ~window ~data ~member] is [W(w, d, m)] above. *)
val member_weight : t -> window:int -> data:int -> member:int -> int

(** [cross_cost t ~window ~data ~member] is the cross-array reference
    cost of hosting the datum in [member] during [window]:
    [Σ_{j ≠ member} W(window, data, j) · move_cost(j, member)]. *)
val cross_cost : t -> window:int -> data:int -> member:int -> int

(** [merged_cross_cost t ~data ~member] is {!cross_cost} against the
    whole-execution merged window. *)
val merged_cross_cost : t -> data:int -> member:int -> int

(** [rank_alive t g] / [alive_members t] — the fault masks, see
    {!Group_fault}. *)
val rank_alive : t -> int -> bool

val alive_members : t -> int list

(** [degenerate t] is the single member's session when the group has one
    member and no array is dead — the case solvers delegate wholesale to
    the single-array path. *)
val degenerate : t -> Sched.Problem.t option

(** [has_member_link_faults t] is [true] iff some member carries a link
    fault — the condition that forces solvers off the mesh-shaped
    migration DP (BFS-detour distances are not separable). *)
val has_member_link_faults : t -> bool

(** [assignment t] is the two-level scheduler's first stage: one member
    index per datum, computed once and cached. Data are visited
    heaviest-first (total merged references descending, id ascending —
    the canonical assignment order); each takes the alive member
    minimizing [merged_cross_cost + (member-local cost at the member's
    best merged center)], lowest index on ties, skipping members whose
    aggregate capacity ([capacity × alive ranks] under [Bounded]) is
    exhausted. Exact for static placements under the flat metric
    (DESIGN.md §12); counter [multi.assignments].
    @raise Invalid_argument when a bounded policy runs out of room. *)
val assignment : t -> int array

(** [stage_two t] is the static scheduler's second stage input: for each
    member, the data {!assignment} gave it (ascending) and a
    {!Sched.Problem} session over the member's subset trace of just those
    data ([None] for a member assigned nothing). Built on first use and
    cached, so a reused problem re-solves on warm sessions; a new session
    inherits its member's cancel token.
    @raise Invalid_argument as {!assignment}. *)
val stage_two : t -> (int array * Sched.Problem.t) option array

(** [set_cancel t token] arms (or, with {!Sched.Cancel.none}, disarms)
    every session of [t] — the member sessions and any built stage-two
    sessions — with the request's deadline token. *)
val set_cancel : t -> Sched.Cancel.t -> unit

(** [max_arena_bytes t] is Σ member sessions' worst-case arena footprint
    — the serve path's admission-control currency. *)
val max_arena_bytes : t -> int

(** [held_bytes t] is what [t] holds once solved: {!max_arena_bytes}
    plus the worst-case arenas of the stage-two sessions built so far
    and the member weight tables — the serve warm pool's charge for a
    pooled group problem. *)
val held_bytes : t -> int

(** [check_feasible t ~who] raises the historical [Invalid_argument]
    when a bounded policy cannot hold the data space in the group's
    surviving aggregate capacity. *)
val check_feasible : t -> who:string -> unit
