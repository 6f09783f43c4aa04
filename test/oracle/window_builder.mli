(** Cutting a materialized reference list into execution windows: the
    oracle that {!Reftrace.Trace.generate} is pinned against, and the
    other window policies the tests study.

    The paper leaves window formation to the compiler ("a sequence of
    parallel execution steps are grouped into an execution window"); these
    builders implement the natural policies: one window per step, a fixed
    number of steps per window, or an arbitrary step→window map. *)

(** [per_step space events] makes one window per distinct [step] value, in
    ascending step order. @raise Invalid_argument on an empty event list. *)
val per_step :
  Reftrace.Data_space.t -> Trace.event list -> Reftrace.Trace.t

(** [fixed ~steps_per_window space events] groups [steps_per_window]
    consecutive distinct steps into each window.
    @raise Invalid_argument if [steps_per_window <= 0] or no events. *)
val fixed :
  steps_per_window:int ->
  Reftrace.Data_space.t ->
  Trace.event list ->
  Reftrace.Trace.t

(** [by ~window_of_step space events] assigns step [s] to window
    [window_of_step s]; window indices must be dense non-negative once
    computed (gaps become empty windows and are dropped).
    @raise Invalid_argument if any computed index is negative or no events. *)
val by :
  window_of_step:(int -> int) ->
  Reftrace.Data_space.t ->
  Trace.event list ->
  Reftrace.Trace.t

(** [adaptive ?threshold space events] detects phase changes instead of
    cutting at a fixed stride: steps are appended to the current window
    while their processor-activity histogram stays within total-variation
    distance [threshold] (in [0, 1], default [0.25]) of the window's
    running average, and a new window starts when the pattern shifts. A
    uniform workload (e.g. a stencil) collapses to one window; a
    phase-shifting workload is cut at its phase boundaries.
    @raise Invalid_argument if [threshold] is outside [0, 1] or no
    events. *)
val adaptive :
  ?threshold:float ->
  Reftrace.Data_space.t ->
  Trace.event list ->
  Reftrace.Trace.t

(** [events_of_trace t] flattens a trace back to events (one event per
    reference count unit, step = window index); [per_step] on the result
    rebuilds an equal trace, a round-trip the tests check. *)
val events_of_trace : Reftrace.Trace.t -> Trace.event list
