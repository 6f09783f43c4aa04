(** Reschedule-on-failure: execute a schedule on an array that degrades
    mid-run.

    The schedulers plan against a fixed fault model; this module answers
    what happens when the model changes {e between execution windows} — a
    processor or link dying after window [w - 1] completes and before
    window [w] starts. Execution walks the windows charging the same
    accounting as {!Schedule.cost} (volume · distance references, volume ·
    distance migrations, initial placement free), with distances served by
    the fault-aware BFS paths ({!Pim.Fault.Paths}) once links die.

    When a failure arrives:

    + data physically sitting on a freshly dead rank are {e evicted} to the
      nearest alive rank ([evicted_cost] — the price of the failure
      itself);
    + every remaining planned center on a dead rank is repaired to the
      nearest alive rank (a schedule may never host data on a dead
      processor);
    + with [~reschedule:true], the surviving windows are re-solved on the
      degraded {!Problem.t} ({!Problem.with_fault_patch}) and merged {e per
      datum}: each datum keeps whichever continuation — re-solved or
      repaired original — prices cheaper under the same routine that
      charges execution. The continuation price is separable across data,
      so rescheduling never loses to not rescheduling, and wins whenever
      the re-solve improves any single datum;
    + references issued by dead processors are reissued by their repair
      rank ([remapped_refs]); messages whose destination has no surviving
      path are counted ([undeliverable] — retry accounting) and charged
      nothing.

    On a healthy run ([events = []] on a fault-free problem) the paid cost
    equals {!Schedule.total_cost} of the planned schedule exactly. *)

(** [fault] becomes active immediately {e before} window [window]
    executes; faults accumulate ({!Pim.Fault.union}) across events. *)
type event = { window : int; fault : Pim.Fault.t }

type report = {
  algorithm : Scheduler.algorithm;
  reschedule : bool;  (** was reschedule-on-failure enabled *)
  planned_cost : int;
      (** analytic cost of the initial plan on the un-degraded problem *)
  reference_cost : int;  (** paid: volume·distance over delivered fetches *)
  movement_cost : int;  (** paid: migrations, including evictions *)
  paid_cost : int;  (** [reference_cost + movement_cost] *)
  evicted : int;  (** data forced off freshly dead ranks *)
  evicted_cost : int;  (** portion of [movement_cost] those evictions cost *)
  reroute_hops : int;
      (** extra hops actually traveled beyond healthy x-y distances *)
  remapped_refs : int;  (** references reissued for dead processors *)
  undeliverable : int;
      (** messages with no surviving path — counted for retry, charged 0 *)
  reschedules : int;
      (** fault events at which the re-solve improved at least one datum's
          continuation (≤ number of fault events) *)
}

(** [run ?reschedule ?events problem algorithm] plans with [algorithm] on
    [problem], then executes window by window under the accumulating
    [events]. [reschedule] (default [true]) re-solves surviving windows at
    each fault event and keeps the cheaper continuation.
    @raise Invalid_argument if an event window is out of range, an event
    fault does not fit the mesh, or the accumulated fault kills every
    processor. *)
val run :
  ?reschedule:bool ->
  ?events:event list ->
  Problem.t ->
  Scheduler.algorithm ->
  report

val pp_report : Format.formatter -> report -> unit
