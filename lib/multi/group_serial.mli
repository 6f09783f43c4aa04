(** Textual serialization of group schedules.

    The counterpart of {!Sched.Schedule_serial} for the multi-array
    tier; the group structure is embedded so a plan is self-contained:

    {v
    # pim-sched group-plan v1
    inter mesh 2 2 cost 10
    member 0 mesh 8 8
    member 1 torus 4 4
    shape <n_windows> <n_data>
    w 0 <global rank> ... (n_data ranks)
    w 1 ...
    v}

    Blank lines and [#] comments are ignored. Only the [inter] and
    [member] header lines are this module's; the [shape] and [w] rows are
    {!Sched.Schedule_serial}'s shared row codec. *)

(** [to_string plan] renders it. *)
val to_string : Group_schedule.t -> string

(** [of_string s] parses a plan, reconstructing the group.
    @raise Failure with a line-numbered message on a malformed line or an
    out-of-range rank, and with an unnumbered one on an error about the
    whole document: a missing [inter] line, no [member] line, members
    that do not fit the interconnect, a missing shape or missing
    windows. *)
val of_string : string -> Group_schedule.t

(** [save plan path] / [load path] — file wrappers.
    @raise Sys_error on I/O failure, [Failure] on parse errors. *)
val save : Group_schedule.t -> string -> unit

val load : string -> Group_schedule.t
