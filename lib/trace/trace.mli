(** Application traces: a data space plus a sequence of execution windows.

    A trace is what the data schedulers consume. It can be produced directly
    by a workload generator ({!Workloads}), or from a flat stream of
    reference {!event}s via {!Window_builder}. *)

type event = {
  step : int;  (** logical execution step the reference occurs at *)
  proc : int;  (** processor rank issuing the reference *)
  data : int;  (** dense data id (see {!Data_space}) *)
  kind : Window.kind;  (** read or write; the cost model treats both alike *)
}

(** [event ?kind ~step ~proc ~data ()] builds an event; [kind] defaults to
    [Read]. *)
val event : ?kind:Window.kind -> step:int -> proc:int -> data:int -> unit -> event

type t

(** [create space windows] packages windows in execution order.
    @raise Invalid_argument if any window's [n_data] differs from
    [Data_space.size space], or if the list is empty. *)
val create : Data_space.t -> Window.t list -> t

val space : t -> Data_space.t
val n_windows : t -> int

(** [window t i] is the [i]-th window. @raise Invalid_argument when out of
    range. *)
val window : t -> int -> Window.t

val windows : t -> Window.t list

(** [total_references t] sums reference counts over all windows. *)
val total_references : t -> int

(** [merged t] is the single window containing every reference of the trace
    — what SCDS schedules against. *)
val merged : t -> Window.t

(** [append a b] runs [b] after [a]: data spaces are merged per
    {!Data_space.concat} (shared array names are identified) and [b]'s
    windows are remapped onto the merged ids. Used for the paper's combined
    benchmarks 3–5. *)
val append : t -> t -> t

(** [reversed t] executes the windows in reverse order (paper benchmark 5
    runs CODE followed by CODE "in the reverse execution order"). *)
val reversed : t -> t

(** [drop_empty_windows t] removes windows with no references, keeping at
    least one window. *)
val drop_empty_windows : t -> t

val pp : Format.formatter -> t -> unit
