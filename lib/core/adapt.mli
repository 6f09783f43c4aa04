(** Run-time adaptation from an imposed initial placement (our extension).

    The paper's schedulers choose the initial placement themselves. In
    practice the initial distribution is often dictated — the data arrive
    row-wise from the host, or a previous program phase left them somewhere
    — and only run-time movement can adapt. This module answers "how much
    of the scheduling gain survives when the start is fixed?": the same
    per-datum shortest-path DP as GOMCDS, except the pseudo source is the
    datum's imposed location, so the migration {e into} window 0's center
    is charged too.

    Staying put is always a feasible path, so the adaptive schedule never
    costs more than running the imposed placement statically; and it can
    never beat free-choice GOMCDS. Both facts are property-tested. *)

(** [schedule ~initial problem] computes the adaptive schedule on a
    shared {!Problem.t}: the DP reads the session's cost rows, and a
    [Bounded] policy is enforced per window through
    {!Problem.fresh_memory}. [initial.(d)] is the imposed rank of datum
    [d] before execution starts.
    @raise Invalid_argument if [initial] has the wrong length, contains an
    invalid rank, the policy is infeasible ({!Problem.check_feasible}), or
    the session's fault is not {!Pim.Fault.none} — adaptation has no
    fault semantics. *)
val schedule : initial:int array -> Problem.t -> Schedule.t

type recovery = {
  imposed_static : int;  (** cost of never moving off the imposed placement *)
  adaptive : int;  (** cost of the adaptive schedule *)
  free_optimal : int;  (** unconstrained per-datum lower bound *)
  recovered : float;
      (** fraction of the (static − optimal) headroom that adaptation
          recovers, in [0, 1]; [1.] when there is no headroom *)
}

(** [recovery ~initial problem] quantifies how much of the gap between
    the imposed static placement and the free optimum run-time movement
    wins back. The adaptive schedule follows the session's policy; the
    free optimum is {!Bounds.lower_bound_in} on
    [Problem.with_policy problem Unbounded], which shares the session's
    caches.
    @raise Invalid_argument as {!schedule}. *)
val recovery : initial:int array -> Problem.t -> recovery
