(** Application traces: a data space plus a sequence of execution windows.

    A trace is what the data schedulers consume. Workload generators
    ({!Workloads}) stream their references into {!generate}; parsed traces
    come from {!Serial}. *)

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

(** [generate space body] runs [body emit] and makes one window per
    distinct step it emits, in step order. [emit ?kind step proc data]
    records one reference to [data] by rank [proc] at [step]; [kind]
    defaults to [Read]. Steps must not decrease: references of one step
    are contiguous, and a later step seals the open window, so only one
    window's log is held at a time and no reference list exists. Steps
    may skip values; a skipped step makes no window.
    @raise Invalid_argument if a step is smaller than the one before it,
    if [body] emits no reference, or (as {!Window.Builder.add}) on an
    out-of-range [data] or a negative [proc]. *)
val generate :
  Data_space.t ->
  ((?kind:Window.kind -> int -> int -> int -> unit) -> unit) ->
  t

val pp : Format.formatter -> t -> unit
