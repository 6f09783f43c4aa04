(** Mesh topology of the PIM processor array.

    A mesh is a [rows] × [cols] grid of processors. Processors are addressed
    either by {!Coord.t} or by a dense integer {e rank} in row-major order:
    [rank = y * cols + x]. All scheduling algorithms work on ranks for speed;
    coordinates are for routing and presentation. *)

type t

(** [create ~rows ~cols] builds a plain (non-wrapping) mesh.
    @raise Invalid_argument if either dimension is [<= 0]. *)
val create : rows:int -> cols:int -> t

(** [torus ~rows ~cols] builds a torus: wrap-around links in both
    dimensions, the other topology the PetaFlop PIM designs considered.
    Distances, routes, neighbours and links all honour the wrap.
    @raise Invalid_argument if either dimension is [<= 0]. *)
val torus : rows:int -> cols:int -> t

(** [square ?wrap n] is an [n] × [n] mesh, or torus when [wrap] is
    [true]. *)
val square : ?wrap:bool -> int -> t

val rows : t -> int
val cols : t -> int

(** [wraps m] is [true] iff [m] is a torus. *)
val wraps : t -> bool

(** [size m] is the number of processors, [rows * cols]. *)
val size : t -> int

(** [in_bounds m c] is [true] iff coordinate [c] names a processor of [m]. *)
val in_bounds : t -> Coord.t -> bool

(** [rank_of_coord m c] converts a coordinate to its row-major rank.
    @raise Invalid_argument if [c] is out of bounds. *)
val rank_of_coord : t -> Coord.t -> int

(** [coord_of_rank m r] converts a rank back to a coordinate.
    @raise Invalid_argument if [r] is outside [0 .. size m - 1]. *)
val coord_of_rank : t -> int -> Coord.t

(** [axis_hops ~wrap ~extent a b] is the routing distance between
    positions [a] and [b] of one axis of [extent] positions: [|a - b|],
    or on a wrapping axis the shorter way round,
    [min (|a - b|, extent - |a - b|)]. x-y routing pays one such distance
    per axis; {!distance} and every per-axis cost in the schedulers are
    built from it. *)
val axis_hops : wrap:bool -> extent:int -> int -> int -> int

(** [distance m a b] is the x-y routing distance between processors of
    rank [a] and [b]: {!axis_hops} of their columns plus {!axis_hops} of
    their rows. It allocates nothing.
    @raise Invalid_argument if [a] or [b] is outside [0 .. size m - 1]. *)
val distance : t -> int -> int -> int

(** [xy_route m ~src ~dst] is the dimension-ordered (x first, then y) route
    from [src] to [dst] as the list of ranks visited, {e including} both
    endpoints. Its length is [distance m src dst + 1]; a route from a
    processor to itself is the singleton list. On a torus each axis goes
    the short way round (the non-wrapping direction on ties). *)
val xy_route : t -> src:int -> dst:int -> int list

(** [links m] enumerates the directed mesh links as [(from, to)] rank pairs;
    every pair of grid-adjacent processors contributes two links. *)
val links : t -> (int * int) list

(** [neighbours m r] is the list of ranks grid-adjacent to [r]. *)
val neighbours : t -> int -> int list

(** [iter_ranks m f] applies [f] to every rank in ascending order. *)
val iter_ranks : t -> (int -> unit) -> unit

(** [fold_ranks m init f] folds [f] over ranks in ascending order. *)
val fold_ranks : t -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [ranks m] is [[0; 1; ...; size m - 1]]. *)
val ranks : t -> int list

val pp : Format.formatter -> t -> unit
