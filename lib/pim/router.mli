(** X-y message routing over the mesh, with traffic accounting.

    [route] charges every hop of the dimension-ordered path to a
    {!Link_stats.t}, so the accumulated {!Link_stats.total} of a batch of
    messages equals the analytic Σ volume·distance cost the schedulers
    compute — the identity the simulator's integration tests rely on.

    Every entry point takes an optional fault {!Fault.Paths.t}: with one,
    messages follow (and are priced by) shortest surviving routes around
    dead links, and a destination with no surviving path raises the typed
    {!Fault.Unreachable} instead of hanging. Without one the original x-y
    code path runs unchanged. *)

type message = {
  src : int;  (** rank holding the data *)
  dst : int;  (** rank that needs it (or receives the migrating datum) *)
  volume : int;  (** data volume in unit elements *)
}

(** [message ~src ~dst ~volume] builds a message. Ranks are validated
    against the mesh at routing time ({!cost} / {!route}), since a message
    does not carry its mesh.
    @raise Invalid_argument if [volume < 0]. *)
val message : src:int -> dst:int -> volume:int -> message

(** [cost ?paths mesh msg] is the analytic cost [volume * distance], where
    distance is fault-aware when [paths] is given.
    @raise Invalid_argument if either rank is outside [0, size).
    @raise Fault.Unreachable if [paths] reports no surviving path. *)
val cost : ?paths:Fault.Paths.t -> Mesh.t -> message -> int

(** [route ?paths mesh stats msg] walks the route of [msg] (x-y, or the
    shortest surviving detour from [paths]), recording [volume] units on every
    traversed link into [stats], and returns the hop·volume cost (equal to
    [cost ?paths mesh msg]). A self-message costs [0].
    @raise Invalid_argument if either rank is outside [0, size).
    @raise Fault.Unreachable if [paths] reports no surviving path. *)
val route : ?paths:Fault.Paths.t -> Mesh.t -> Link_stats.t -> message -> int

(** [route_all ?paths mesh stats msgs] routes a batch and returns the
    summed cost. *)
val route_all :
  ?paths:Fault.Paths.t -> Mesh.t -> Link_stats.t -> message list -> int

val pp_message : Format.formatter -> message -> unit
