(** Layered shortest-path DP, the shape of the GOMCDS cost-graph.

    A layered problem has [n_layers] layers; a trajectory picks one node
    per layer, pays that node's layer cost, and pays the move cost
    between consecutive nodes. {!solve} is the one forward DP every
    scheduler here runs. A layer is a concatenation of {e blocks} — one
    per PIM array — each priced by its own layer rows ({!row}) and
    relaxed by one of two relaxations:

    - {!Axes}: the x-y routing metric of a mesh or torus
      ({!Pim.Mesh.distance}), given by its shape and relaxed by a
      separable L1 distance transform (two lexicographic sweeps per row
      and per column), O(width) per layer.
    - {!Table}: a full rank-to-rank table (the BFS distances around dead
      links), relaxed by an ascending O(width²) scan.

    Both are made by {!axes} and {!table}, which check them once, so a
    solve does no work on a relaxation beyond relaxing it.

    With more than one block, a trajectory may also migrate to any node
    of another block at a flat per-block-pair price; the fabric collapses
    to one scalar edge per ordered block pair, so the DP stays O(n_blocks
    · Σ width + n_blocks²) per layer on top of the block relaxations.

    Every relaxation breaks ties the same way: a target's predecessor is
    the lowest-ranked source among those reaching it at minimal cost, and
    the final node is the lowest-ranked minimal one. The DP carries each
    node as one packed int, (cost above the layer minimum, source rank),
    so that rule is one integer compare; DESIGN.md §16 "Packed cells"
    proves the range. The work buffers are per domain, so a solve
    allocates little beyond the returned centers.

    A single {!Axes} block whose rows are all {!Axis_sum} separates: its
    cost is an x trajectory's plus a y trajectory's, so {!solve} first
    runs one 1-D DP per axis, O(n_layers · (cols + rows)), with the
    same tie rule, and returns that answer when [admit] admits every
    center of it. Otherwise it runs the DP above. The answer is the same
    either way (DESIGN.md §16 "Separable solves"). *)

(** How a block prices a move between two of its nodes. *)
type relaxation = private
  | Axes of { cols : int; rows : int; wrap : bool }
      (** Row-major [rows]×[cols] mesh, width [cols·rows]:
          [dist(j, k)] is the x-y routing distance between the
          coordinates [(j mod cols, j / cols)] and
          [(k mod cols, k / cols)]: per axis [|a - b|], or the shorter
          way round when [wrap] ({!Pim.Mesh.axis_hops}). A wrapping axis
          of extent at most 2 is the line it equals. *)
  | Table of { dist : int array array; max_step : int }
      (** Width×width table, [dist(j, k) = dist.(j).(k)]; [max_step] is
          its largest entry. *)

(** [axes ~cols ~rows ~wrap] is the metric of a [rows]×[cols] mesh, or
    torus when [wrap].
    @raise Invalid_argument if [cols] or [rows] is not positive. *)
val axes : cols:int -> rows:int -> wrap:bool -> relaxation

(** [table dist] relaxes over [dist]. The table is read once here for its
    shape, sign and largest entry, and never copied: do not mutate it.
    @raise Invalid_argument if [dist] is empty or not square, or has a
    negative entry. *)
val table : int array array -> relaxation

(** A layer row: the cost of hosting the layer at each node of a
    block.
    - [Full v]: [v.(j)] at local node [j]; [v] has the block's width.
    - [Axis_sum (cx, cy)]: [cx.(j mod cols) + cy.(j / cols)], with [cx]
      of length [cols] and [cy] of length [rows] — the form a
      reference's cost takes under x-y routing, which splits per axis.
      Only an {!Axes} block of that shape takes it: link faults break
      the split, and a {!Table} block has no axes. *)
type row = Full of int array | Axis_sum of int array * int array

(** [entry row j] is [row]'s cost at local node [j]. *)
val entry : row -> int -> int

(** [to_array row] is every entry of [row], as a fresh array. *)
val to_array : row -> int array

(** [argmin ?admit row] is the lowest node of least cost among the nodes
    [admit] lets in (byte [j] ['\000'] masks node [j] out; every node when
    [admit] is absent), or [-1] when it masks out every node. The
    unmasked answer is a scan of a full row or the two axis minima of an
    axis sum; when [admit] masks that node out, one more ascending scan
    over the row's entries finds the admitted minimum, allocating
    nothing. This is the head with room of the paper's processor list
    (ranks sorted by (cost, rank)) when [admit] is a memory's free-slot
    row ({!Pim.Memory.admit_row}).
    @raise Invalid_argument if [admit] is shorter than the row. *)
val argmin : ?admit:Bytes.t -> row -> int

(** One block: its relaxation and one row per layer ([rows.(w)] prices
    layer [w]). Rows may be shared between layers and blocks: they are
    only read. *)
type block = { relaxation : relaxation; rows : row array }

(** [solve ?admit ?move_cost ?consts ~n_layers blocks] returns the
    minimal trajectory cost and one witness, the global node chosen in
    each layer; the global node of block [i]'s local node [j] is
    [Σ_{i' < i} width(i') + j] (the {!Multi.Array_group} rank).

    - [admit layer] (default: everything) is layer [layer]'s admit row:
      global node [g] may host the layer iff byte [g] of the row is not
      ['\000'] (memory-capacity exclusion, dead ranks). The mask applies
      after relaxation. The rows are read in up to two passes, each
      from layer 0 upward: the check of the per-axis answer, which stops
      at the first layer that does not admit its center, then the full
      DP when that check fails. Within a pass, a row is read before the
      next layer's is asked for and is never kept, so a caller may hand
      back one buffer it updates in place (e.g. {!Pim.Memory.admit_row}),
      but [admit] must return the same row for a layer each time.
    - [move_cost src dst] prices a migration from any node of block [src]
      to any node of block [dst] ([src <> dst]); required when there is
      more than one block, never read with one. It is read once per
      ordered pair per solve.
    - [consts ~layer ~member] (default 0) is added to every node of block
      [member] in that layer (the cross-array reference cost of hosting
      the datum there — DESIGN.md §12).

    The fabric edges are applied after the block relaxations with the
    same strict [<] (the source is each block's previous-layer entry
    minimum, lowest global rank on ties, blocks visited ascending), so
    staying inside a block beats migrating at equal cost. Returns [None]
    when [admit] empties some layer.

    Range precondition: let [D] be the largest single step — the axis
    diameters of every [Axes] block, the [max_step] of every [Table]
    (so {!Sched.Problem.unreachable_cost} counts) and the largest
    [move_cost] — and [b] the bit width of the total layer width. Then
    [D < 2^(60 - b)] must hold; costs themselves (layer rows, consts and
    path sums) are unbounded apart from native-int overflow.
    @raise Invalid_argument on empty [blocks], non-positive [n_layers], a
    negative [move_cost], fewer rows than [n_layers], a [Full] row whose
    length is not the block width, an [Axis_sum] row on a [Table] block
    or with axes of the wrong lengths, several blocks without
    [move_cost], an admit row shorter than the layer, or
    [D >= 2^(60 - b)]. *)
val solve :
  ?admit:(int -> Bytes.t) ->
  ?move_cost:(int -> int -> int) ->
  ?consts:(layer:int -> member:int -> int) ->
  n_layers:int ->
  block array ->
  (int * int array) option
