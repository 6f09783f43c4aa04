type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type problem = {
  n_layers : int;
  width : int;
  enter_cost : int -> int;
  step_cost : layer:int -> int -> int -> int;
}

type group_member = {
  g_xdist : int array array;
  g_ydist : int array array;
  g_vectors : buffer;
  g_offsets : int array;
}

let validate p =
  if p.n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  if p.width <= 0 then invalid_arg "Layered: width must be positive"

(* DP work counters, reported once per solve (see DESIGN.md
   "Observability"): per layer [nodes] = sources with a finite cost and
   [edges] = relaxation steps actually taken — nodes x reachable targets
   for the scanning forms, sweep steps for the separable ones. Totals
   are per-datum and therefore independent of how solves are fanned out
   across domains. *)
let report_solve ~nodes ~edges =
  if !Obs.enabled then begin
    Obs.Metrics.incr "layered.solves";
    Obs.Metrics.add "layered.nodes_expanded" nodes;
    Obs.Metrics.add "layered.edges_relaxed" edges
  end

(* Forward DP over layers. [dist.(j)] is the best cost of reaching node [j]
   of the current layer; [choice.(layer).(j)] records the predecessor. *)
let solve_general p ~allowed =
  validate p;
  Obs.Span.with_ ~name:"layered.solve" @@ fun () ->
  let inf = max_int in
  let dist = Array.make p.width inf in
  let choice = Array.make_matrix p.n_layers p.width (-1) in
  for j = 0 to p.width - 1 do
    if allowed ~layer:0 j then dist.(j) <- p.enter_cost j
  done;
  let nodes = ref 0 and edges = ref 0 in
  for layer = 1 to p.n_layers - 1 do
    let finite = ref 0 in
    Array.iter (fun d -> if d <> inf then incr finite) dist;
    let next = Array.make p.width inf in
    let allowed_k = ref 0 in
    for k = 0 to p.width - 1 do
      if allowed ~layer k then begin
        incr allowed_k;
        for j = 0 to p.width - 1 do
          if dist.(j) <> inf then begin
            let c = dist.(j) + p.step_cost ~layer j k in
            if c < next.(k) then begin
              next.(k) <- c;
              choice.(layer).(k) <- j
            end
          end
        done
      end
    done;
    nodes := !nodes + !finite;
    edges := !edges + (!finite * !allowed_k);
    Array.blit next 0 dist 0 p.width
  done;
  report_solve ~nodes:!nodes ~edges:!edges;
  let best = ref (-1) in
  for j = 0 to p.width - 1 do
    if dist.(j) <> inf && (!best = -1 || dist.(j) < dist.(!best)) then
      best := j
  done;
  if !best = -1 then None
  else begin
    let centers = Array.make p.n_layers (-1) in
    centers.(p.n_layers - 1) <- !best;
    for layer = p.n_layers - 1 downto 1 do
      centers.(layer - 1) <- choice.(layer).(centers.(layer))
    done;
    Some (dist.(!best), centers)
  end

let solve p =
  match solve_general p ~allowed:(fun ~layer:_ _ -> true) with
  | Some r -> r
  | None -> assert false (* unrestricted problem is always feasible *)

let solve_filtered p ~allowed = solve_general p ~allowed

(* Dense specialization of [solve_general] for the ubiquitous cost shape
   enter = vectors.(0), step = dist + vectors.(layer): straight table
   reads in the inner loop instead of two closure calls per edge. The
   candidate scan visits (k, j) in the same order with the same strict
   comparison as [solve_general], so predecessors and final centers break
   ties identically. *)
let solve_dense_general ~dist ~vectors ~allowed =
  let n_layers = Array.length vectors in
  if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  let width = Array.length vectors.(0) in
  if width <= 0 then invalid_arg "Layered: width must be positive";
  Obs.Span.with_ ~name:"layered.solve" @@ fun () ->
  let inf = max_int in
  let cur = Array.make width inf in
  let choice = Array.make_matrix n_layers width (-1) in
  let v0 = vectors.(0) in
  for j = 0 to width - 1 do
    if allowed ~layer:0 j then cur.(j) <- v0.(j)
  done;
  let best = Array.make width inf in
  let from = Array.make width (-1) in
  let nodes = ref 0 in
  for layer = 1 to n_layers - 1 do
    Array.fill best 0 width inf;
    for j = 0 to width - 1 do
      let dj = cur.(j) in
      if dj <> inf then begin
        incr nodes;
        let row = dist.(j) in
        for k = 0 to width - 1 do
          let c = dj + row.(k) in
          if c < best.(k) then begin
            best.(k) <- c;
            from.(k) <- j
          end
        done
      end
    done;
    let v = vectors.(layer) in
    let ch = choice.(layer) in
    for k = 0 to width - 1 do
      if best.(k) <> inf && allowed ~layer k then begin
        cur.(k) <- best.(k) + v.(k);
        ch.(k) <- from.(k)
      end
      else cur.(k) <- inf
    done
  done;
  report_solve ~nodes:!nodes ~edges:(!nodes * width);
  let best_node = ref (-1) in
  for j = 0 to width - 1 do
    if cur.(j) <> inf && (!best_node = -1 || cur.(j) < cur.(!best_node))
    then best_node := j
  done;
  if !best_node = -1 then None
  else begin
    let centers = Array.make n_layers (-1) in
    centers.(n_layers - 1) <- !best_node;
    for layer = n_layers - 1 downto 1 do
      centers.(layer - 1) <- choice.(layer).(centers.(layer))
    done;
    Some (cur.(!best_node), centers)
  end

(* ------------------------------------------------------------------ *)
(* Separable layer relaxation                                          *)
(* ------------------------------------------------------------------ *)

(* Every axis-table solve relaxes a layer the same way. The move cost is
   xd(jx,kx) + yd(jy,ky) with each term |Δ| (or the ring distance on a
   wrapping axis), so min_j cur(j) + dist(j,k) is a separable L1 distance
   transform: sweep every row forward then backward carrying the running
   best one unit per step, then every column the same way (Felzenszwalb &
   Huttenlocher, "Distance Transforms of Sampled Functions"). O(width)
   per layer instead of O(width²).

   The sweeps carry (cost, source rank) pairs compared lexicographically,
   so the relaxed [best.(k)]/[from.(k)] is the lexicographic minimum of
   (cur(j) + dist(j,k), j) over finite sources j — exactly what the dense
   ascending scan with strict [<] computes (lowest source rank wins
   ties). Three facts make the sweeps exact: adding a constant keeps the
   lexicographic order, so a minimum of minima is the minimum of the
   union; every candidate a sweep produces is (cur(j) + L, j) for the
   length L of some walk from j, so it is never better than j's direct
   candidate; and every direct candidate is produced (on a ring the
   sweeps go round twice less one cell, so each source reaches each
   target the short way). DESIGN.md §16 has the argument in full. *)

let inf = max_int

(* Wrap flag of one axis table, derived from its entries: [false] for
   |a - b|, [true] for the ring distance min(|a - b|, n - |a - b|) (on
   extents <= 2 the two coincide and read as a line). Anything else has
   no sweep form. *)
let axis_wrap what t =
  let n = Array.length t in
  let line = ref true and ring = ref true in
  for a = 0 to n - 1 do
    let row = t.(a) in
    if Array.length row <> n then
      invalid_arg (Printf.sprintf "Layered: %s is not square" what);
    for b = 0 to n - 1 do
      let d = abs (a - b) in
      let v = row.(b) in
      if v <> d then line := false;
      if v <> min d (n - d) then ring := false
    done
  done;
  if !line then false
  else if !ring then true
  else
    invalid_arg
      (Printf.sprintf "Layered: %s is neither a |a-b| nor a ring distance table"
         what)

(* Cells visited by one directed sweep along a line of [n]: a line once,
   a ring round twice less one cell. *)
let sweep_cells ~n ~wrap = if wrap then (2 * n) - 1 else n

(* Lexicographic forward + backward sweep of the (cost, source) pairs in
   [c]/[s] along the [n] cells [base + i·stride]. *)
let sweep c s ~base ~stride ~n ~wrap =
  let cells = sweep_cells ~n ~wrap in
  let last = base + ((n - 1) * stride) in
  let rc = ref inf and rs = ref 0 in
  let p = ref base in
  for _ = 1 to cells do
    let cp = c.(!p) and r = !rc + 1 in
    if !rc <> inf && (r < cp || (r = cp && !rs < s.(!p))) then begin
      rc := r;
      c.(!p) <- r;
      s.(!p) <- !rs
    end
    else begin
      rc := cp;
      rs := s.(!p)
    end;
    if !p = last then p := base else p := !p + stride
  done;
  rc := inf;
  p := last;
  for _ = 1 to cells do
    let cp = c.(!p) and r = !rc + 1 in
    if !rc <> inf && (r < cp || (r = cp && !rs < s.(!p))) then begin
      rc := r;
      c.(!p) <- r;
      s.(!p) <- !rs
    end
    else begin
      rc := cp;
      rs := s.(!p)
    end;
    if !p = base then p := last else p := !p - stride
  done

(* Relax one row-major [rows]×[cols] block stored at [base]: rows along
   x, then columns along y. *)
let relax c s ~base ~cols ~rows ~wrap_x ~wrap_y =
  for y = 0 to rows - 1 do
    sweep c s ~base:(base + (y * cols)) ~stride:1 ~n:cols ~wrap:wrap_x
  done;
  for x = 0 to cols - 1 do
    sweep c s ~base:(base + x) ~stride:cols ~n:rows ~wrap:wrap_y
  done

(* Relaxation steps [relax] performs on one block — the
   [layered.edges_relaxed] unit. *)
let relax_steps ~cols ~rows ~wrap_x ~wrap_y =
  (rows * 2 * (sweep_cells ~n:cols ~wrap:wrap_x - 1))
  + (cols * 2 * (sweep_cells ~n:rows ~wrap:wrap_y - 1))

(* Per-domain solve buffers: a solve allocates only the centers it
   returns. [choice] is flat, layer [l]'s predecessors at
   [l·width .. l·width + width - 1]; entries are read back only along
   the finite witness path, and each of those was written by the same
   solve, so buffers are never cleared. A solve larger than
   [max_kept_words] gets buffers of its own, left to the GC, so one
   outsized request does not pin its buffers in every domain for the
   life of the process. *)
type scratch = {
  mutable cur : int array;
  mutable best : int array;
  mutable from : int array;
  mutable choice : int array;
}

let max_kept_words = 1 lsl 20

let fresh_scratch ~width ~n_layers =
  {
    cur = Array.make width inf;
    best = Array.make width inf;
    from = Array.make width (-1);
    choice = Array.make (width * n_layers) (-1);
  }

let scratch_key =
  Domain.DLS.new_key (fun () -> fresh_scratch ~width:0 ~n_layers:0)

let scratch ~width ~n_layers =
  if width * n_layers > max_kept_words then fresh_scratch ~width ~n_layers
  else begin
    let sc = Domain.DLS.get scratch_key in
    if Array.length sc.cur < width then begin
      sc.cur <- Array.make width inf;
      sc.best <- Array.make width inf;
      sc.from <- Array.make width (-1)
    end;
    if Array.length sc.choice < width * n_layers then
      sc.choice <- Array.make (width * n_layers) (-1);
    sc
  end

(* Copy [cur] into the relaxation pairs (each node its own source) and
   count the finite sources — the [layered.nodes_expanded] unit. *)
let seed sc ~base ~len =
  let finite = ref 0 in
  for j = base to base + len - 1 do
    let d = sc.cur.(j) in
    sc.best.(j) <- d;
    sc.from.(j) <- j;
    if d <> inf then incr finite
  done;
  !finite

let admits allowed ~layer k =
  match allowed with None -> true | Some f -> f ~layer k

(* Lowest final cost, lowest index on ties; then walk the predecessors
   back from the last layer. *)
let finish sc ~width ~n_layers =
  let cur = sc.cur in
  let best_node = ref (-1) in
  for j = 0 to width - 1 do
    if cur.(j) <> inf && (!best_node = -1 || cur.(j) < cur.(!best_node))
    then best_node := j
  done;
  if !best_node = -1 then None
  else begin
    let centers = Array.make n_layers (-1) in
    centers.(n_layers - 1) <- !best_node;
    for layer = n_layers - 1 downto 1 do
      centers.(layer - 1) <- sc.choice.((layer * width) + centers.(layer))
    done;
    Some (cur.(!best_node), centers)
  end

(* Axis-table DP: the step distance is read off the two per-axis tables
   (dist(j,k) = xd(jx,kx) + yd(jy,ky)) through the separable relaxation
   above, so neither an O(width²) rank-to-rank matrix nor an O(width²)
   scan ever happens. The layer vectors are rows of one flat arena
   buffer — row [layer] starts at [offsets.(layer)], or [layer * width]
   when no offset table is given (back-to-back layout). Offsets may
   repeat: a compact arena points every zero layer at one shared row.
   [test/test_fastpath.ml] pins it byte-equal to [solve_dense]. *)
let solve_axes_general ?offsets ~xdist ~ydist ~vectors ~width ~n_layers
    ~allowed () =
  if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  if width <= 0 then invalid_arg "Layered: width must be positive";
  let cols = Array.length xdist and rows = Array.length ydist in
  if cols * rows <> width then
    invalid_arg "Layered: axis tables do not factor the layer width";
  let wrap_x = axis_wrap "xdist" xdist and wrap_y = axis_wrap "ydist" ydist in
  let dim = Bigarray.Array1.dim vectors in
  (match offsets with
  | Some o ->
      if Array.length o < n_layers then
        invalid_arg "Layered: offset table shorter than n_layers";
      Array.iter
        (fun off ->
          if off < 0 || off + width > dim then
            invalid_arg "Layered: layer offset outside the vector buffer")
        o
  | None ->
      if dim < n_layers * width then
        invalid_arg "Layered: flat vector buffer shorter than n_layers x width");
  let off layer =
    match offsets with Some o -> o.(layer) | None -> layer * width
  in
  Obs.Span.with_ ~name:"layered.solve" @@ fun () ->
  let sc = scratch ~width ~n_layers in
  let off0 = off 0 in
  for j = 0 to width - 1 do
    sc.cur.(j) <-
      (if admits allowed ~layer:0 j then vectors.{off0 + j} else inf)
  done;
  let per_layer = relax_steps ~cols ~rows ~wrap_x ~wrap_y in
  let nodes = ref 0 and steps = ref 0 in
  for layer = 1 to n_layers - 1 do
    let finite = seed sc ~base:0 ~len:width in
    nodes := !nodes + finite;
    if finite > 0 then begin
      relax sc.best sc.from ~base:0 ~cols ~rows ~wrap_x ~wrap_y;
      steps := !steps + per_layer
    end;
    let voff = off layer and cb = layer * width in
    for k = 0 to width - 1 do
      let b = sc.best.(k) in
      if b <> inf && admits allowed ~layer k then begin
        sc.cur.(k) <- b + vectors.{voff + k};
        sc.choice.(cb + k) <- sc.from.(k)
      end
      else sc.cur.(k) <- inf
    done
  done;
  report_solve ~nodes:!nodes ~edges:!steps;
  finish sc ~width ~n_layers

let solve_axes ?offsets ~xdist ~ydist ~vectors ~width ~n_layers () =
  match
    solve_axes_general ?offsets ~xdist ~ydist ~vectors ~width ~n_layers
      ~allowed:None ()
  with
  | Some r -> r
  | None -> assert false (* unrestricted problem is always feasible *)

let solve_axes_filtered ?offsets ~xdist ~ydist ~vectors ~width ~n_layers
    ~allowed () =
  solve_axes_general ?offsets ~xdist ~ydist ~vectors ~width ~n_layers
    ~allowed:(Some allowed) ()

(* Multi-array form of [solve_axes_general]: the layer is the disjoint
   union of member blocks (one per PIM array), each with its own axis
   tables and arena slab, concatenated in member order so a global node
   index is [base.(i) + local]. Within a block the relaxation is the
   separable sweep pair above, on global source ranks. Between blocks
   the inter-array fabric is a flat metric — every node of member [jm]
   reaches every node of member [i] at the same price [move_cost jm i] —
   so the cross product of block nodes collapses to one scalar edge per
   ordered member pair: take each source member's entry minimum (lowest
   global rank on ties), add the member-pair move cost, and offer it to
   every node of the target block. Cross edges are applied after the
   intra pass with the same strict [<], sources visited in ascending
   member order, so staying inside the member wins every tie and a
   1-member group is byte-identical to [solve_axes]. *)
let solve_group_general ~members ~move_cost ~consts ~n_layers ~allowed () =
  let n_members = Array.length members in
  if n_members <= 0 then invalid_arg "Layered: members must be nonempty";
  if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  let widths =
    Array.map
      (fun m ->
        let cols = Array.length m.g_xdist and rows = Array.length m.g_ydist in
        if cols <= 0 || rows <= 0 then
          invalid_arg "Layered: member axis tables must be nonempty";
        cols * rows)
      members
  in
  let wraps =
    Array.map
      (fun m -> (axis_wrap "g_xdist" m.g_xdist, axis_wrap "g_ydist" m.g_ydist))
      members
  in
  let bases = Array.make (n_members + 1) 0 in
  for i = 0 to n_members - 1 do
    bases.(i + 1) <- bases.(i) + widths.(i)
  done;
  let total = bases.(n_members) in
  Array.iteri
    (fun i m ->
      let dim = Bigarray.Array1.dim m.g_vectors in
      if Array.length m.g_offsets < n_layers then
        invalid_arg "Layered: member offset table shorter than n_layers";
      Array.iter
        (fun off ->
          if off < 0 || off + widths.(i) > dim then
            invalid_arg "Layered: member layer offset outside the vector buffer")
        m.g_offsets)
    members;
  Obs.Span.with_ ~name:"layered.solve_group" @@ fun () ->
  let sc = scratch ~width:total ~n_layers in
  let cur = sc.cur and best = sc.best and from = sc.from in
  for i = 0 to n_members - 1 do
    let m = members.(i) in
    let off0 = m.g_offsets.(0) and b = bases.(i) in
    let c0 = consts ~layer:0 ~member:i in
    for j = 0 to widths.(i) - 1 do
      cur.(b + j) <-
        (if allowed ~layer:0 (b + j) then m.g_vectors.{off0 + j} + c0 else inf)
    done
  done;
  let minv = Array.make n_members inf in
  let minr = Array.make n_members (-1) in
  let nodes = ref 0 and steps = ref 0 in
  for layer = 1 to n_layers - 1 do
    (* per-member entry minima over the previous layer: the single source
       every outgoing cross edge of that member reroots at (lowest global
       rank on ties, matching the ascending scans everywhere else) *)
    for i = 0 to n_members - 1 do
      minv.(i) <- inf;
      minr.(i) <- -1;
      let b = bases.(i) in
      for j = 0 to widths.(i) - 1 do
        let d = cur.(b + j) in
        if d < minv.(i) then begin
          minv.(i) <- d;
          minr.(i) <- b + j
        end
      done
    done;
    for i = 0 to n_members - 1 do
      let m = members.(i) in
      let cols = Array.length m.g_xdist and rows = Array.length m.g_ydist in
      let wrap_x, wrap_y = wraps.(i) in
      let b = bases.(i) in
      let finite = seed sc ~base:b ~len:widths.(i) in
      nodes := !nodes + finite;
      if finite > 0 then begin
        relax best from ~base:b ~cols ~rows ~wrap_x ~wrap_y;
        steps := !steps + relax_steps ~cols ~rows ~wrap_x ~wrap_y
      end
    done;
    for i = 0 to n_members - 1 do
      let cv = ref inf and cf = ref (-1) in
      for jm = 0 to n_members - 1 do
        if jm <> i && minv.(jm) <> inf then begin
          let c = minv.(jm) + move_cost jm i in
          if c < !cv then begin
            cv := c;
            cf := minr.(jm)
          end
        end
      done;
      if !cf >= 0 then begin
        let b = bases.(i) in
        for k = 0 to widths.(i) - 1 do
          if !cv < best.(b + k) then begin
            best.(b + k) <- !cv;
            from.(b + k) <- !cf
          end
        done;
        steps := !steps + widths.(i)
      end
    done;
    let cb = layer * total in
    for i = 0 to n_members - 1 do
      let m = members.(i) in
      let voff = m.g_offsets.(layer) and b = bases.(i) in
      let ci = consts ~layer ~member:i in
      for k = 0 to widths.(i) - 1 do
        let g = b + k in
        if best.(g) <> inf && allowed ~layer g then begin
          cur.(g) <- best.(g) + m.g_vectors.{voff + k} + ci;
          sc.choice.(cb + g) <- from.(g)
        end
        else cur.(g) <- inf
      done
    done
  done;
  report_solve ~nodes:!nodes ~edges:!steps;
  finish sc ~width:total ~n_layers

let solve_group = solve_group_general

let solve_dense ~dist ~vectors =
  match solve_dense_general ~dist ~vectors ~allowed:(fun ~layer:_ _ -> true)
  with
  | Some r -> r
  | None -> assert false (* unrestricted problem is always feasible *)

let solve_dense_filtered ~dist ~vectors ~allowed =
  solve_dense_general ~dist ~vectors ~allowed

let to_digraph p =
  validate p;
  let node_id ~layer j = 2 + (layer * p.width) + j in
  let source = 0 and sink = 1 in
  let g = Digraph.create ~n_nodes:(2 + (p.n_layers * p.width)) in
  for j = 0 to p.width - 1 do
    Digraph.add_edge g ~src:source ~dst:(node_id ~layer:0 j)
      ~weight:(p.enter_cost j)
  done;
  for layer = 1 to p.n_layers - 1 do
    for j = 0 to p.width - 1 do
      for k = 0 to p.width - 1 do
        Digraph.add_edge g
          ~src:(node_id ~layer:(layer - 1) j)
          ~dst:(node_id ~layer k)
          ~weight:(p.step_cost ~layer j k)
      done
    done
  done;
  for j = 0 to p.width - 1 do
    Digraph.add_edge g ~src:(node_id ~layer:(p.n_layers - 1) j) ~dst:sink
      ~weight:0
  done;
  (g, source, sink, node_id)
