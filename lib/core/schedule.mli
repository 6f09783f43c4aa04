(** Data schedules: where every datum lives in every execution window.

    A schedule is the output of every algorithm in this library. It fixes,
    for each execution window of a trace, the processor (center) holding
    each datum. Cost accounting, feasibility checking against bounded
    memories, and lowering to simulator traffic all live here.

    The storage and every host-independent operation are written once over
    ['host plan]: a plan's centers are ranks of its host, kept in one
    window-major flat buffer. A mesh schedule is a plan hosted on a
    {!Pim.Mesh.t}; the multi-array tier hosts the same plan on a group of
    arrays ([Multi.Group_schedule]). *)

(** {1 Plans over any host} *)

type 'host plan

(** [create_on host ~size ~n_windows ~n_data] starts with every datum at
    rank 0 in every window; [size] is the number of ranks [host] offers.
    @raise Invalid_argument on non-positive sizes. *)
val create_on : 'host -> size:int -> n_windows:int -> n_data:int -> 'host plan

val host : 'host plan -> 'host

(** [host_size t] is the number of ranks of [t]'s host. *)
val host_size : _ plan -> int

(** [with_host t host ~size] is an independent copy of [t] hosted on
    [host]: the ranks carry over unchanged.
    @raise Invalid_argument unless [size] equals [host_size t]. *)
val with_host : _ plan -> 'host -> size:int -> 'host plan

val n_windows : _ plan -> int
val n_data : _ plan -> int

(** [center t ~window ~data] is where [data] lives during [window]. *)
val center : _ plan -> window:int -> data:int -> int

(** [set_center t ~window ~data rank] places [data] at [rank] in [window].
    @raise Invalid_argument on out-of-range arguments, including a rank
    outside the host. *)
val set_center : _ plan -> window:int -> data:int -> int -> unit

(** [centers_of_data t ~data] is the datum's trajectory across windows. *)
val centers_of_data : _ plan -> data:int -> int array

(** [is_static t ~data] is [true] iff the datum never moves. *)
val is_static : _ plan -> data:int -> bool

(** [moves t] counts inter-window migrations over all data. *)
val moves : _ plan -> int

type cost_breakdown = {
  reference : int;  (** Σ window reference cost *)
  movement : int;  (** Σ inter-window migration cost *)
  total : int;
}

(** [weighted_cost ~distance t trace] is the paper's total communication
    cost of [t] on [trace] under the host metric [distance]: every
    reference and every migration weighted by the datum's element volume,
    movement charged from window 1 on (initial placement is free — every
    method pays it alike). @raise Invalid_argument if shapes disagree. *)
val weighted_cost :
  distance:(int -> int -> int) -> _ plan -> Reftrace.Trace.t -> cost_breakdown

(** [loads t] is the occupancy of every host rank in every window:
    [(loads t).(w).(r)] data live at rank [r] during window [w]. *)
val loads : _ plan -> int array array

(** [copy t] is an independent duplicate. *)
val copy : 'host plan -> 'host plan

(** [equal a b] holds when both have identical shapes and centers (the
    hosts are not compared). *)
val equal : 'host plan -> 'host plan -> bool

(** {1 Mesh schedules} *)

type t = Pim.Mesh.t plan

(** [create mesh ~n_windows ~n_data] starts with every datum at rank 0 in
    every window. @raise Invalid_argument on non-positive sizes. *)
val create : Pim.Mesh.t -> n_windows:int -> n_data:int -> t

(** [constant mesh ~n_windows placement] pins datum [d] at [placement.(d)]
    for the whole execution (SCDS and the straight-forward baselines).
    @raise Invalid_argument if any rank is out of mesh bounds. *)
val constant : Pim.Mesh.t -> n_windows:int -> int array -> t

val mesh : t -> Pim.Mesh.t

(** [cost t trace] is {!weighted_cost} under the mesh distance.
    @raise Invalid_argument if shapes disagree. *)
val cost : t -> Reftrace.Trace.t -> cost_breakdown

(** [total_cost t trace] is [(cost t trace).total]. *)
val total_cost : t -> Reftrace.Trace.t -> int

(** [check_capacity t ~capacity] verifies that no window packs more than
    [capacity] data on one processor; returns the first violation as
    [(window, rank, load)] or [None] when feasible. *)
val check_capacity : t -> capacity:int -> (int * int * int) option

(** [to_rounds ?prefetch t trace] lowers the schedule to simulator
    traffic: per window, migration messages (from the previous window's
    center, volume = element volume) then one message per reference
    profile entry (volume = count × element volume). Initial placement is
    free, as in the paper (every method pays it alike).

    With [prefetch] (default [false]), the migration into window [w] is
    issued during window [w - 1] instead — the total hop·volume is
    unchanged, but the timed simulator can overlap movement with the
    previous window's reference traffic, shrinking makespan. *)
val to_rounds :
  ?prefetch:bool -> t -> Reftrace.Trace.t -> Pim.Simulator.round list

val pp : Format.formatter -> t -> unit
