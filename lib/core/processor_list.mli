(** The paper's "processor list" device for bounded memories.

    Each datum's list is every processor sorted by ascending
    communication cost, ties on the smaller rank (Algorithm 1, lines
    5–7); when the optimal center is full, the datum goes to the first
    processor in the list with a free slot. Only that head is ever read,
    so the cost-row form never builds the list: the head with room is
    the lowest-(cost, rank) rank whose memory has a free slot, one masked
    {!Pathgraph.Layered.argmin} over the row. Dead processors are banned
    in the memory ({!Pim.Memory.ban}), so the same mask skips them. *)

(** [choose memory row] is the first rank with a free slot in [row]'s
    processor list, or [None] when every memory is full — without
    allocating and without building the list: O(cols + rows) on an axis
    sum whose least-cost rank has room, one O(P) scan otherwise. *)
val choose : Pim.Memory.t -> Pathgraph.Layered.row -> int option

(** [place memory row] allocates a slot at {!choose}'s rank and returns
    it. @raise Failure if every memory is full (cannot happen when total
    data ≤ capacity × alive processors). *)
val place : Pim.Memory.t -> Pathgraph.Layered.row -> int

(** [first_available memory list] is the first rank in an explicit
    [list] with a free slot — without allocating. [None] if every listed
    rank is full. *)
val first_available : Pim.Memory.t -> int list -> int option

(** [assign memory list] allocates a slot at the first available rank of
    an explicit [list] and returns it. @raise Failure if every rank in
    [list] is full. *)
val assign : Pim.Memory.t -> int list -> int
