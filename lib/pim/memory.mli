(** Per-processor bounded local memories.

    The paper assumes each PIM processor "can hold a limited number of data";
    in the experiments the capacity is twice the minimum required (e.g. a
    4×4 array holding an 8×8 data array gives each processor capacity 8).
    This module tracks slot occupancy so schedulers can implement the
    processor-list fallback when a chosen center is full. *)

type t

(** [create mesh ~capacity] gives every processor [capacity] free slots.
    @raise Invalid_argument if [capacity < 0]. *)
val create : Mesh.t -> capacity:int -> t

(** [unbounded mesh] models infinite memories (capacity checks always pass). *)
val unbounded : Mesh.t -> t

(** [capacity_for ~data_count ~mesh ~headroom] is the paper's capacity rule:
    [headroom * ceil(data_count / size mesh)]. The experiments use
    [headroom = 2]. @raise Invalid_argument on non-positive arguments. *)
val capacity_for : data_count:int -> mesh:Mesh.t -> headroom:int -> int

val mesh : t -> Mesh.t

(** [capacity t] is the per-processor capacity, or [None] when unbounded. *)
val capacity : t -> int option

(** [used t rank] is the number of occupied slots at [rank]. *)
val used : t -> int -> int

(** [ban t rank] marks [rank]'s memory as failed: it holds nothing from now
    on — [free] is [0], [is_full] is [true] and [allocate] refuses, even on
    an unbounded tracker. Bans survive {!reset} (the hardware stays dead
    when occupancy is cleared). How dead processors are excluded from
    placement. *)
val ban : t -> int -> unit

(** [banned t rank] is [true] iff [rank] was {!ban}ned. *)
val banned : t -> int -> bool

(** [free t rank] is the number of free slots at [rank]; [max_int] when
    unbounded. *)
val free : t -> int -> int

(** [is_full t rank] is [true] iff no slot is free at [rank]. *)
val is_full : t -> int -> bool

(** [allocate t rank] takes one slot. Returns [false] (and changes nothing)
    if [rank] is full. *)
val allocate : t -> int -> bool

(** [release t rank] returns one slot.
    @raise Invalid_argument if [rank] has no occupied slot. *)
val release : t -> int -> unit

(** [reset t] frees every slot. *)
val reset : t -> unit

(** [copy t] is an independent snapshot. *)
val copy : t -> t

(** [admit_row t] is the tracker's admit row: byte [rank] is ['\001']
    iff [rank] has a free slot ([not (is_full t rank)]), ['\000']
    otherwise. It is the tracker's own buffer, kept in step by
    {!allocate}, {!release}, {!ban} and {!reset} — read it, never write
    it. The form {!Pathgraph.Layered.solve}'s [?admit] takes, so bounded
    placement masks full ranks without a per-node test. *)
val admit_row : t -> Bytes.t

(** [total_used t] is the sum of occupied slots over the whole array. *)
val total_used : t -> int

val pp : Format.formatter -> t -> unit
