(** The paper's "processor list" device for bounded memories.

    Each datum's list is every processor sorted by ascending
    communication cost, ties on the smaller rank (Algorithm 1, lines
    5–7); when the optimal center is full, the datum goes to the first
    processor in the list with a free slot. Only that head is ever read,
    so the cost-row form never builds the list: the head with room is
    the lowest-(cost, rank) rank whose memory has a free slot, one masked
    {!Pathgraph.Layered.argmin} over the row. Dead processors are banned
    in the memory ({!Pim.Memory.ban}), so the same mask skips them. The
    row may be any row ranks are sorted by: a cost row for SCDS and LOMCDS,
    a BFS distance row for the link-faulted grouping repair ({!place_near}
    walks the mesh metric's). The full sorted lists live in the test
    oracle only. *)

(** [choose memory row] is the first rank with a free slot in [row]'s
    processor list, or [None] when every memory is full — without
    allocating and without building the list: O(cols + rows) on an axis
    sum whose least-cost rank has room, one O(P) scan otherwise. *)
val choose : Pim.Memory.t -> Pathgraph.Layered.row -> int option

(** [place memory row] allocates a slot at {!choose}'s rank and returns
    it. @raise Failure if every memory is full (cannot happen when total
    data ≤ capacity × alive processors). *)
val place : Pim.Memory.t -> Pathgraph.Layered.row -> int

(** [place_near memory ~floor ~probes ~target] is {!place} over the
    {!Pim.Mesh.distance} row from [target], without the row: a walk of
    [target]'s distance shells from [floor.(target)], ranks ascending
    within a shell. It sets [floor.(target)] to the answer's distance and
    adds the admit bytes it read to [probes]; exact while no memory was
    freed since the floor was set. @raise Failure if every memory is full. *)
val place_near :
  Pim.Memory.t -> floor:int array -> probes:int ref -> target:int -> int
