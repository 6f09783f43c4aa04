(** Group-level data schedules: a {!Sched.Schedule.plan} hosted on an
    {!Array_group.t}, its centers global group ranks.

    Storage, [center], [set_center], [centers_of_data], [moves] and [copy]
    are {!Sched.Schedule}'s own, shared with mesh schedules. This module
    adds only what belongs to groups. Costing is
    {!Sched.Schedule.weighted_cost} under the group metric
    ({!Array_group.distance}), so a 1-member group's costs coincide with
    the plain schedule's. *)

type t = Array_group.t Sched.Schedule.plan

(** [create group ~n_windows ~n_data] starts with every datum at global
    rank 0. @raise Invalid_argument on non-positive sizes. *)
val create : Array_group.t -> n_windows:int -> n_data:int -> t

val group : t -> Array_group.t

(** [moves t] is {!Sched.Schedule.moves}: inter-window migrations. *)
val moves : t -> int

(** [array_moves t] counts the migrations that cross a member boundary
    (ride the fabric). *)
val array_moves : t -> int

type cost_breakdown = Sched.Schedule.cost_breakdown = {
  reference : int;  (** Σ volume-weighted window reference cost *)
  movement : int;  (** Σ volume-weighted inter-window migration cost *)
  total : int;
}

(** [cost t trace] prices the schedule under the group metric.
    @raise Invalid_argument if shapes disagree. *)
val cost : t -> Reftrace.Trace.t -> cost_breakdown

(** [of_mesh_schedule group sched] lifts a single-array schedule into a
    1-member group (ranks coincide).
    @raise Invalid_argument unless [group] is degenerate with a member
    matching [sched]'s mesh size. *)
val of_mesh_schedule : Array_group.t -> Sched.Schedule.t -> t

(** [to_mesh_schedule t] lowers a degenerate group's schedule back onto
    its single member; [None] for a real group. *)
val to_mesh_schedule : t -> Sched.Schedule.t option

(** [equal a b] — identical groups (per {!Array_group.equal}), shapes
    and centers. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
