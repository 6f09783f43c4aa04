(** Local-Optimal Multiple-Center Data Scheduling (paper §3.2.1).

    Each datum is placed, window by window, at that window's local optimal
    center (Algorithm 1 applied per window); the datum migrates between
    windows. Movement cost is {e not} considered when choosing centers —
    that is precisely the weakness GOMCDS fixes — but is of course charged
    in the resulting schedule's cost.

    Windows in which a datum is not referenced leave it where it was. A
    datum's initial placement is the local optimal center of the first
    window that references it (placing it there from the start is free,
    since initial distribution is not charged to any method). *)

(** [schedule problem] computes the LOMCDS schedule on a shared
    {!Problem.t}. The per-(datum, window) cost rows are filled on the
    context's domain pool; the window walk and its bounded-memory
    fallbacks ({!Processor_list.place} on each row: the head with room of
    the processor list, which is never built) run serially (heavier data
    first), so the result is identical at every [jobs] setting.
    @raise Invalid_argument if the capacity policy is infeasible. *)
val schedule : Problem.t -> Schedule.t

(** [local_centers mesh trace ~data] is, per window, [Some rank] (the
    unconstrained local optimal center) when the datum is referenced and
    [None] otherwise. Exposed for the worked example and tests. *)
val local_centers :
  Pim.Mesh.t -> Reftrace.Trace.t -> data:int -> int option array
