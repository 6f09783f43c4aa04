(** Layered shortest-path DP, the shape of the GOMCDS cost-graph.

    A layered problem has [n_layers] layers; a trajectory picks one node
    per layer, pays that node's layer cost, and pays the move cost
    between consecutive nodes. {!solve} is the one forward DP every
    scheduler here runs. A layer is a concatenation of {e blocks} — one
    per PIM array — each priced by its own flat buffer of layer rows and
    relaxed by one of two relaxations:

    - {!Axes}: the mesh metric as two per-axis tables, relaxed by a
      separable L1 distance transform (two lexicographic sweeps per row
      and per column), O(width) per layer. Precondition: every axis
      table is the [|a - b|] line metric or the ring metric
      [min (|a - b|, e - |a - b|)] of its extent [e] (exactly what
      {!Pim.Mesh.x_distance_table} and {!Pim.Mesh.y_distance_table}
      return); any other table raises [Invalid_argument].
    - {!Table}: a full rank-to-rank table (the BFS distances around dead
      links), relaxed by an ascending O(width²) scan.

    With more than one block, a trajectory may also migrate to any node
    of another block at a flat per-block-pair price; the fabric collapses
    to one scalar edge per ordered block pair, so the DP stays O(n_blocks
    · Σ width + n_blocks²) per layer on top of the block relaxations.

    Every relaxation breaks ties the same way: a target's predecessor is
    the lowest-ranked source among those reaching it at minimal cost, and
    the final node is the lowest-ranked minimal one. The work buffers are
    per domain, so a solve allocates little beyond the returned centers. *)

(** Flat layer-vector buffer: a 1-D [int] bigarray, so arena slabs can be
    allocated {e uninitialized} (only rows actually written cost memory
    traffic — an [int array] would zero-fill every row on allocation). *)
type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** How a block prices a move between two of its nodes. *)
type relaxation =
  | Axes of { xdist : int array array; ydist : int array array }
      (** Row-major [rows]×[cols] mesh: [xdist] is [cols]×[cols],
          [ydist] [rows]×[rows], width [cols·rows], and
          [dist(j, k) = xdist.(j mod cols).(k mod cols) +
          ydist.(j / cols).(k / cols)]. *)
  | Table of int array array
      (** Width×width table, [dist(j, k) = t.(j).(k)]. *)

(** One block: its relaxation, its flat layer-vector buffer and the row
    offset of each layer in it — layer [w] occupies
    [vectors.{offsets.(w)} .. vectors.{offsets.(w) + width - 1}].
    Offsets may repeat: a compact arena slab from
    {!Sched.Problem.layer_slab} points every non-referencing layer at one
    shared zero row. *)
type block = { relaxation : relaxation; vectors : buffer; offsets : int array }

(** [solve ?allowed ?move_cost ?consts ~n_layers blocks] returns the
    minimal trajectory cost and one witness, the global node chosen in
    each layer; the global node of block [i]'s local node [j] is
    [Σ_{i' < i} width(i') + j] (the {!Multi.Array_group} rank).

    - [allowed ~layer g] (default: everything) masks global node [g] out
      of layer [layer] after relaxation (memory-capacity exclusion, dead
      ranks).
    - [move_cost src dst] prices a migration from any node of block [src]
      to any node of block [dst] ([src <> dst]); required when there is
      more than one block, never read with one.
    - [consts ~layer ~member] (default 0) is added to every node of block
      [member] in that layer (the cross-array reference cost of hosting
      the datum there — DESIGN.md §12).

    The fabric edges are applied after the block relaxations with the
    same strict [<] (the source is each block's previous-layer entry
    minimum, lowest global rank on ties, blocks visited ascending), so
    staying inside a block beats migrating at equal cost. Returns [None]
    when [allowed] empties some layer.
    @raise Invalid_argument on empty [blocks], non-positive [n_layers], an
    empty or non-square table, an axis table that is neither a line nor a
    ring metric, an offset table shorter than [n_layers], an offset row
    outside its buffer, or several blocks without [move_cost]. *)
val solve :
  ?allowed:(layer:int -> int -> bool) ->
  ?move_cost:(int -> int -> int) ->
  ?consts:(layer:int -> member:int -> int) ->
  n_layers:int ->
  block array ->
  (int * int array) option
