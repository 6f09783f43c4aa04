(** Textual serialization of schedules.

    The counterpart of {!Reftrace.Serial} for scheduler {e output}: a
    computed schedule can be saved, inspected, diffed, and later re-loaded
    and executed (e.g. by an offline planner feeding a runtime). Format:

    {v
    # pim-sched schedule v1
    mesh 4 4
    shape <n_windows> <n_data>
    w 0 <rank> <rank> ... (n_data ranks)
    w 1 ...
    v}

    A torus writes [torus 4 4] instead of [mesh 4 4]. Blank lines and [#]
    comments are ignored.

    The [shape] / [w] rows are one codec for plans on any host
    ({!encode}, {!decode}); a host format only adds its own header lines
    (the multi-array group plan does). *)

(** [to_string schedule] renders it. *)
val to_string : Schedule.t -> string

(** [of_string s] parses a schedule (mesh shape included in the format).
    @raise Failure with a line-numbered message on malformed input or
    out-of-range ranks, and an unnumbered one for a missing schedule or
    missing windows. *)
val of_string : string -> Schedule.t

(** [save schedule path] / [load path] — file wrappers.
    @raise Sys_error on I/O failure, [Failure] on parse errors. *)
val save : Schedule.t -> string -> unit

val load : string -> Schedule.t

(** {1 The shared row codec} *)

(** [encode ~head plan] is [head] (whole, newline-terminated header lines)
    followed by the [shape] line and one [w] row per window, written into
    one buffer presized for the whole plan. *)
val encode : head:string -> _ Schedule.plan -> string

(** [decode ~what ~header ~host s] parses what {!encode} writes. Blank
    and [#] lines are skipped; every other line that is not [shape] or a
    [w] row goes to [header] (its space-separated words), which returns
    [false] for a line it does not know and raises [Failure] or
    [Invalid_argument] for a malformed one. [host ~line] is called at the
    [shape] line and returns the host and its rank count; its [Failure]
    or [Invalid_argument] message describes the whole document.
    @raise Failure prefixed with [what]: line errors as
    ["<what>: line <n>: <msg>"], host and whole-document errors as
    ["<what>: <msg>"]. *)
val decode :
  what:string ->
  header:(string list -> bool) ->
  host:(line:int -> 'host * int) ->
  string ->
  'host Schedule.plan

(** [mesh_line mesh] is ["mesh <rows> <cols>"] or ["torus <rows> <cols>"]. *)
val mesh_line : Pim.Mesh.t -> string

(** [mesh_of kind rows cols] parses the words of a {!mesh_line}.
    @raise Failure on an unknown topology or malformed dimensions. *)
val mesh_of : string -> string -> string -> Pim.Mesh.t
