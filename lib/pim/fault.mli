(** Fault model for partially-available PIM arrays.

    The paper's schedulers assume every processor can host a center and
    every x-y route exists. This module describes the ways a real array
    degrades — {e node faults} (a processor's compute/memory dies, so it
    can no longer host data) and {e link faults} (a mesh link dies, so x-y
    routes must detour) — and provides the shortest surviving paths the
    rest of the stack routes and prices against on the degraded topology.

    Failure semantics: a dead {e node} keeps its router alive (the
    compute/memory macro fails, the network switch does not — the common
    PIM failure mode), so node faults never change distances; they only
    remove the rank from the set of legal data centers. A dead {e link} is
    bidirectional and removes both directed edges, which is what forces
    detours and makes distances non-separable.

    A [Fault.t] is independent of any mesh: it is a set of dead ranks and
    dead links, validated against a mesh when a {!Paths.t} (or a
    [Sched.Problem.t]) is built over it. Values are immutable. *)

type t

(** [Unreachable (src, dst)] — a message was routed between two ranks with
    no surviving path. Raised by fault-aware routing ({!Paths.route} never
    raises; {!Router.route} translates its [None]); catch it to implement
    retry accounting instead of hanging. *)
exception Unreachable of int * int

(** The healthy array: no dead nodes, no dead links. The guaranteed
    zero-overhead value — every fault-aware entry point checks {!is_none}
    and falls back to the exact pre-fault code path. *)
val none : t

val is_none : t -> bool

(** [create ?dead_nodes ?dead_links ()] builds a static fault set. Links
    are undirected: listing either direction kills both. Duplicates are
    ignored. Ranks/links are validated lazily against the mesh they are
    used with (see {!validate}). *)
val create : ?dead_nodes:int list -> ?dead_links:(int * int) list -> unit -> t

(** [inject ~seed ~node_rate ~link_rate mesh] is the deterministic seeded
    injection: every rank dies independently with probability [node_rate],
    every undirected mesh link with probability [link_rate]. The same seed
    always draws the same per-rank and per-link randoms {e regardless of
    the rates}, so the dead set at a higher rate is a superset of the dead
    set at a lower rate (monotone degradation sweeps). At least one node
    always survives: if every rank would die, the rank with the luckiest
    draw is resurrected.
    @raise Invalid_argument unless both rates are in [0, 1]. *)
val inject :
  seed:int -> node_rate:float -> link_rate:float -> Mesh.t -> t

(** [kill_node t rank] / [kill_link t ~src ~dst] are [t] plus one more
    failure (persistent — [t] is unchanged). Killing an already-dead
    element is a no-op. *)
val kill_node : t -> int -> t

(** [kill_nodes t ranks] kills a whole rank set at once — how a
    {e whole-array} failure in a multi-array group ({!Multi.Group_fault})
    lowers onto this model: an array is just a set of dead ranks.
    Duplicates and already-dead ranks are ignored. *)
val kill_nodes : t -> int list -> t

val kill_link : t -> src:int -> dst:int -> t

(** [union a b] fails everything failed in either. *)
val union : t -> t -> t

(** [node_dead t rank] is [true] iff [rank]'s compute/memory is dead. *)
val node_dead : t -> int -> bool

(** [link_dead t ~src ~dst] is [true] iff the (undirected) link is dead. *)
val link_dead : t -> src:int -> dst:int -> bool

(** [dead_nodes t] / [dead_links t] enumerate the failures, ascending
    (links as [(lo, hi)] canonical pairs). *)
val dead_nodes : t -> int list

val dead_links : t -> (int * int) list

val n_dead_nodes : t -> int
val n_dead_links : t -> int

(** [has_node_faults t] / [has_link_faults t] — the two downgrade triggers:
    node faults shrink the candidate-center set, link faults move cost
    rows and the layered DP off the separable fast path onto the BFS
    distance table. *)
val has_node_faults : t -> bool

val has_link_faults : t -> bool

(** [alive_count t mesh] is the number of ranks of [mesh] that can still
    host data. *)
val alive_count : t -> Mesh.t -> int

(** [validate t mesh] checks every dead rank is a rank of [mesh] and every
    dead link is a mesh link.
    @raise Invalid_argument otherwise. *)
val validate : t -> Mesh.t -> unit

val pp : Format.formatter -> t -> unit

(** Cached BFS shortest paths over the degraded topology.

    Distances and routes are computed by breadth-first search over the
    mesh graph minus dead links (dead nodes keep routing — see the model
    note above), one source at a time, cached for the value's lifetime.
    On {!none} the answers come straight from the closed-form
    {!Mesh.distance} / {!Mesh.xy_route} without running any BFS, so a
    healthy [Paths.t] is free and byte-identical to the fault-oblivious
    paths. *)
module Paths : sig
  type fault := t

  type t

  (** [create mesh fault] validates [fault] against [mesh] and returns
      paths with an empty cache. @raise Invalid_argument on a fault naming
      ranks or links outside [mesh]. *)
  val create : Mesh.t -> fault -> t

  val mesh : t -> Mesh.t
  val fault : t -> fault

  (** [distance t ~src ~dst] is the hop count of a shortest surviving
      route, [None] when [dst] is unreachable from [src]. Equals
      {!Mesh.distance} whenever the fault has no link faults.
      @raise Invalid_argument on out-of-range ranks. *)
  val distance : t -> src:int -> dst:int -> int option

  (** [route t ~src ~dst] is a shortest surviving route as the list of
      ranks visited including both endpoints (deterministic: BFS expands
      neighbours in ascending-rank order), or [None] when unreachable. On
      a fault with no link faults this is exactly {!Mesh.xy_route}.
      @raise Invalid_argument on out-of-range ranks. *)
  val route : t -> src:int -> dst:int -> int list option

  (** [distance_exn t ~src ~dst] is {!distance}, raising
      {!Unreachable}. *)
  val distance_exn : t -> src:int -> dst:int -> int
end
