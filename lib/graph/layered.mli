(** Layered shortest-path DP, the shape of the GOMCDS cost-graph.

    A layered problem has [n_layers] layers of [width] nodes each, plus an
    implicit source before layer 0 and sink after the last layer.

    The production solvers ({!solve_axes}, {!solve_axes_filtered},
    {!solve_group}) take the mesh metric as two per-axis tables and relax
    each layer with a separable L1 distance transform — two lexicographic
    sweeps per row and per column — so an [n]-layer, [m]-node solve costs
    O(n·m) time and allocates only the returned centers (the work buffers
    are per domain). Precondition: every axis table is the [|a - b|] line
    metric or the ring metric [min (|a - b|, e - |a - b|)] of its extent
    [e] (exactly what {!Pim.Mesh.x_distance_table} and
    {!Pim.Mesh.y_distance_table} return); any other table raises
    [Invalid_argument].

    The callback form ({!solve}, {!solve_filtered}) prices edges through
    closures in O(n·m²); it serves metrics with no axis form (BFS
    distances around dead links). The dense forms ({!solve_dense},
    {!solve_dense_filtered}) are the O(n·m²) full-table oracles, and the
    explicit-{!Digraph} route (via {!to_digraph}) cross-checks against
    {!Shortest_path}.

    Every solver breaks ties the same way: a target's predecessor is the
    lowest-ranked source among those reaching it at minimal cost, and the
    final node is the lowest-ranked minimal one. *)

(** Flat layer-vector buffer for the axis-table solvers: a 1-D [int]
    bigarray, so arena slabs can be allocated {e uninitialized} (only
    rows actually written cost memory traffic — an [int array] would
    zero-fill every row on allocation). *)
type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type problem = {
  n_layers : int;  (** number of layers (execution windows) *)
  width : int;  (** nodes per layer (processors) *)
  enter_cost : int -> int;
      (** [enter_cost j] — weight of the source → (layer 0, node j) edge *)
  step_cost : layer:int -> int -> int -> int;
      (** [step_cost ~layer j k] — weight of (layer, node j) →
          (layer+1, node k); [layer] is the {e destination} layer index,
          [1 <= layer <= n_layers - 1] *)
}

(** [solve p] returns the minimal source→sink cost and one witness: the node
    chosen in each layer, length [n_layers].
    @raise Invalid_argument if [n_layers <= 0] or [width <= 0]. *)
val solve : problem -> int * int array

(** [solve_filtered p ~allowed] restricts layer [i] to nodes [j] with
    [allowed ~layer:i j = true] (used for memory-capacity exclusion).
    Returns [None] when no feasible path exists. *)
val solve_filtered :
  problem -> allowed:(layer:int -> int -> bool) -> (int * int array) option

(** [solve_dense ~dist ~vectors] is {!solve} specialized to the cost shape
    every scheduler here uses — [enter_cost j = vectors.(0).(j)] and
    [step_cost ~layer j k = dist.(j).(k) + vectors.(layer).(k)] — with the
    tables read directly in the inner loop (no closure per edge).
    [vectors] has one row per layer; [dist] is [width] × [width]. Results,
    including tie-breaking, are identical to the callback form. *)
val solve_dense : dist:int array array -> vectors:int array array -> int * int array

(** [solve_dense_filtered ~dist ~vectors ~allowed] is {!solve_filtered} on
    the same dense representation. *)
val solve_dense_filtered :
  dist:int array array ->
  vectors:int array array ->
  allowed:(layer:int -> int -> bool) ->
  (int * int array) option

(** [solve_axes ?offsets ~xdist ~ydist ~vectors ~width ~n_layers ()] is
    {!solve_dense} with the step distance decomposed onto the two per-axis
    tables of a row-major [rows]×[cols] mesh — [xdist] is [cols]×[cols],
    [ydist] [rows]×[rows], [width = cols·rows] and
    [dist(j, k) = xdist.(j mod cols).(k mod cols) +
    ydist.(j / cols).(k / cols)] — so no O(width²) rank-to-rank matrix is
    ever materialized. [vectors] is one flat buffer holding the layer cost
    rows: layer [w] occupies
    [vectors.(offsets.(w)) .. vectors.(offsets.(w) + width - 1)]. Offsets
    may repeat — a compact arena slab from {!Sched.Problem.layer_slab}
    points every non-referencing layer at one shared zero row. When
    [offsets] is omitted the rows are assumed back to back
    ([offsets.(w) = w·width]). Each layer is relaxed by the separable
    distance transform in O(width); results, including every tie-break,
    are identical to {!solve_dense} over the factored full table.
    @raise Invalid_argument if the axis tables do not factor [width], an
    axis table is neither a line nor a ring metric, an offset row
    overruns the buffer, or (without [offsets]) the buffer is shorter
    than [n_layers · width]. *)
val solve_axes :
  ?offsets:int array ->
  xdist:int array array ->
  ydist:int array array ->
  vectors:buffer ->
  width:int ->
  n_layers:int ->
  unit ->
  int * int array

(** [solve_axes_filtered ?offsets ~xdist ~ydist ~vectors ~width ~n_layers
    ~allowed ()] is {!solve_filtered} on the axis-table representation. *)
val solve_axes_filtered :
  ?offsets:int array ->
  xdist:int array array ->
  ydist:int array array ->
  vectors:buffer ->
  width:int ->
  n_layers:int ->
  allowed:(layer:int -> int -> bool) ->
  unit ->
  (int * int array) option

(** One member block of a multi-array layered problem (see
    {!solve_group}): the member's two per-axis distance tables, its flat
    arena slab and the per-layer offset table into it — exactly the
    inputs {!solve_axes} takes for a single array. *)
type group_member = {
  g_xdist : int array array;  (** [cols]×[cols] x-axis distance table *)
  g_ydist : int array array;  (** [rows]×[rows] y-axis distance table *)
  g_vectors : buffer;  (** the member's flat layer-vector slab *)
  g_offsets : int array;  (** row offset of each layer in [g_vectors] *)
}

(** [solve_group ~members ~move_cost ~consts ~n_layers ~allowed ()] is the
    layered DP over a {e group} of PIM arrays: each layer is the disjoint
    union of the member blocks concatenated in member order (the global
    node index of member [i]'s local node [j] is
    [Σ_{i' < i} width(i') + j] — the {!Multi.Array_group} rank), and a
    trajectory may either step within its member (priced by the member's
    axis tables, exactly as {!solve_axes}) or migrate to any node of
    another member at the flat inter-array price [move_cost src dst]
    ([src]/[dst] are {e member} indices, only read for [src <> dst]).
    Because the inter-array metric is flat, the block-to-block cross
    product collapses to one scalar edge per ordered member pair, and
    each block is relaxed by the separable distance transform — per layer
    the DP costs O(n_members · Σ width(i) + n_members²). [consts ~layer ~member] is added to every node of the
    member in that layer (the cross-array reference cost of hosting the
    datum there — a constant per member, see DESIGN.md §12).

    Tie-breaking: the intra-member relaxation runs first with the usual
    ascending scans; cross edges are applied after with the same strict
    [<] (the source is each member's previous-layer entry minimum,
    lowest global rank on ties, members visited ascending), so staying
    inside a member beats migrating at equal cost, and a 1-member group
    with zero [consts] is byte-identical to {!solve_axes}. Returns
    [None] when [allowed] empties some layer.
    @raise Invalid_argument on empty [members], non-positive [n_layers],
    empty member axis tables, a member axis table that is neither a line
    nor a ring metric, or an offset row outside a member slab. *)
val solve_group :
  members:group_member array ->
  move_cost:(int -> int -> int) ->
  consts:(layer:int -> member:int -> int) ->
  n_layers:int ->
  allowed:(layer:int -> int -> bool) ->
  unit ->
  (int * int array) option

(** [to_digraph p] materializes the cost-graph exactly as the paper describes
    (pseudo source node, pseudo destination node, zero-weight edges into the
    sink) and returns [(graph, source, sink, node_id)] where
    [node_id ~layer j] is the graph node for processor [j] in window
    [layer]. *)
val to_digraph :
  problem -> Digraph.t * int * int * (layer:int -> int -> int)
