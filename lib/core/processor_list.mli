(** The paper's "processor list" device for bounded memories.

    Each datum gets the list of all processors sorted by ascending
    communication cost (Algorithm 1, lines 5–7); when the optimal center is
    full, the datum goes to the first processor in the list with a free
    slot. Ties break on the smaller rank so schedules are deterministic. *)

(** [of_costs ~n cost] sorts ranks [0 .. n-1] by [(cost rank, rank)]
    ascending. The callback form lets {!Sched.Problem} build lists straight
    off a cost row without copying the vector out first. Dense cost
    ranges (≤ 4n + 1024) take a stable counting pass instead of a
    comparison sort; both orders are identical, including ties. *)
val of_costs : n:int -> (int -> int) -> int list

(** [of_cost_vector v] is [of_costs] over an explicit vector. *)
val of_cost_vector : int array -> int list

(** [for_data mesh window ~data] is the candidate list for [data] under
    [window]'s reference string. *)
val for_data : Pim.Mesh.t -> Reftrace.Window.t -> data:int -> int list

(** [first_available memory list] is the first rank in [list] with a free
    slot — without allocating. [None] if every listed rank is full. *)
val first_available : Pim.Memory.t -> int list -> int option

(** [assign memory list] allocates a slot at the first available rank and
    returns it. @raise Failure if every rank in [list] is full (cannot
    happen when total data ≤ capacity × processors and the list is
    complete). *)
val assign : Pim.Memory.t -> int list -> int
