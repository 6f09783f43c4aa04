(** Textual serialization of traces.

    A small line-oriented format so traces can be saved, shipped and
    re-loaded (e.g. recorded from an instrumented application and scheduled
    offline by the CLI). The format is human-editable:

    {v
    # pim-sched trace v1
    array A 8 8
    array C 8 8
    window 0
    ref <data-id> <proc-rank> <count>
    ref ...
    window 1
    ...
    v}

    Blank lines and [#] comments are ignored. Arrays must precede windows;
    window headers must carry consecutive indices starting at 0; [ref]
    lines attach to the most recent window. *)

(** [to_string t] renders the trace. [of_string (to_string t)] rebuilds an
    equal trace. *)
val to_string : Trace.t -> string

(** [of_string ?processors s] parses a trace. With [processors], a
    reference of positive count to a rank at or past it is refused as it
    is read, before any window row grows out to that rank (so a hostile
    rank costs no memory); without it every rank is accepted.
    @raise Failure with a line-numbered message on malformed input. *)
val of_string : ?processors:int -> string -> Trace.t

(** [save t path] / [load path] — file convenience wrappers.
    @raise Sys_error on I/O failure, [Failure] on parse errors. *)
val save : Trace.t -> string -> unit

val load : string -> Trace.t
