type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type relaxation =
  | Axes of { xdist : int array array; ydist : int array array }
  | Table of int array array

type block = { relaxation : relaxation; vectors : buffer; offsets : int array }

let inf = max_int

(* DP work counters, reported once per solve (see DESIGN.md
   "Observability"): per layer [nodes] = sources with a finite cost and
   [edges] = relaxation steps actually taken — sweep steps for an [Axes]
   block, finite sources x block width for a [Table] block, plus one per
   node a fabric edge is offered to. Totals are per-datum and therefore
   independent of how solves are fanned out across domains. *)
let report_solve ~nodes ~edges =
  if !Obs.enabled then begin
    Obs.Metrics.incr "layered.solves";
    Obs.Metrics.add "layered.nodes_expanded" nodes;
    Obs.Metrics.add "layered.edges_relaxed" edges
  end

(* ------------------------------------------------------------------ *)
(* Axes: the separable relaxation                                      *)
(* ------------------------------------------------------------------ *)

(* The move cost is xd(jx,kx) + yd(jy,ky) with each term |Δ| (or the
   ring distance on a wrapping axis), so min_j cur(j) + dist(j,k) is a
   separable L1 distance transform: sweep every row forward then backward
   carrying the running best one unit per step, then every column the
   same way (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
   Functions"). O(width) per layer instead of O(width²).

   The sweeps carry (cost, source rank) pairs compared lexicographically,
   so the relaxed [best.(k)]/[from.(k)] is the lexicographic minimum of
   (cur(j) + dist(j,k), j) over finite sources j — exactly what the
   [Table] scan with strict [<] computes (lowest source rank wins ties).
   Three facts make the sweeps exact: adding a constant keeps the
   lexicographic order, so a minimum of minima is the minimum of the
   union; every candidate a sweep produces is (cur(j) + L, j) for the
   length L of some walk from j, so it is never better than j's direct
   candidate; and every direct candidate is produced (on a ring the
   sweeps go round twice less one cell, so each source reaches each
   target the short way). DESIGN.md §16 has the argument in full. *)

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

(* ------------------------------------------------------------------ *)
(* The forward DP                                                      *)
(* ------------------------------------------------------------------ *)

(* A block's relaxation, checked and resolved once per solve. *)
type relax =
  | Sweep of { cols : int; rows : int; wrap_x : bool; wrap_y : bool }
  | Scan of int array array

let width_of = function
  | Sweep { cols; rows; _ } -> cols * rows
  | Scan t -> Array.length t

let compile ~n_layers b =
  let r =
    match b.relaxation with
    | Axes { xdist; ydist } ->
        let cols = Array.length xdist and rows = Array.length ydist in
        if cols <= 0 || rows <= 0 then
          invalid_arg "Layered: axis tables must be nonempty";
        Sweep
          {
            cols;
            rows;
            wrap_x = axis_wrap "xdist" xdist;
            wrap_y = axis_wrap "ydist" ydist;
          }
    | Table t ->
        let n = Array.length t in
        if n <= 0 then invalid_arg "Layered: distance table must be nonempty";
        Array.iter
          (fun row ->
            if Array.length row <> n then
              invalid_arg "Layered: distance table is not square")
          t;
        Scan t
  in
  let width = width_of r and dim = Bigarray.Array1.dim b.vectors in
  if Array.length b.offsets < n_layers then
    invalid_arg "Layered: offset table shorter than n_layers";
  Array.iter
    (fun off ->
      if off < 0 || off + width > dim then
        invalid_arg "Layered: layer offset outside the vector buffer")
    b.offsets;
  r

(* Relaxation steps a block performs on a layer with [finite] finite
   sources — the [layered.edges_relaxed] unit: the sweep steps of an
   [Axes] block (none when no source is finite), sources x width for a
   [Table] block. *)
let relax_steps r ~finite =
  match r with
  | Sweep { cols; rows; wrap_x; wrap_y } ->
      if finite = 0 then 0
      else
        (rows * 2 * (sweep_cells ~n:cols ~wrap:wrap_x - 1))
        + (cols * 2 * (sweep_cells ~n:rows ~wrap:wrap_y - 1))
  | Scan t -> finite * Array.length t

(* Per-domain solve buffers: a solve allocates only the centers it
   returns and a few words per block. [choice] is flat, layer [l]'s predecessors at
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

(* Relax block [r] at global base [b] from [cur] into [best]/[from];
   returns the number of finite sources. A [Sweep] seeds each node as
   its own source and runs the lexicographic sweeps; a [Scan] is the
   ascending full-table scan, sources outer, strict [<]. *)
let relax_block sc r ~b =
  let cur = sc.cur and best = sc.best and from = sc.from in
  match r with
  | Sweep { cols; rows; wrap_x; wrap_y } ->
      let finite = ref 0 in
      for j = b to b + (cols * rows) - 1 do
        let d = cur.(j) in
        best.(j) <- d;
        from.(j) <- j;
        if d <> inf then incr finite
      done;
      if !finite > 0 then begin
        for y = 0 to rows - 1 do
          sweep best from ~base:(b + (y * cols)) ~stride:1 ~n:cols ~wrap:wrap_x
        done;
        for x = 0 to cols - 1 do
          sweep best from ~base:(b + x) ~stride:cols ~n:rows ~wrap:wrap_y
        done
      end;
      !finite
  | Scan t ->
      let w = Array.length t in
      Array.fill best b w inf;
      let finite = ref 0 in
      for j = 0 to w - 1 do
        let dj = cur.(b + j) in
        if dj <> inf then begin
          incr finite;
          let row = t.(j) in
          for k = 0 to w - 1 do
            let c = dj + row.(k) in
            if c < best.(b + k) then begin
              best.(b + k) <- c;
              from.(b + k) <- b + j
            end
          done
        end
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

(* The forward DP. Each layer is the concatenation of the blocks (global
   node = block base + local index). A layer relaxes every block on its
   own relaxation; with several blocks the flat fabric then offers each
   block one scalar edge per source block — that block's entry minimum
   (lowest global rank on ties) plus [move_cost] — applied after the
   intra-block pass with the same strict [<], sources ascending, so
   staying inside a block wins every tie. A single block runs no fabric
   pass at all. *)
let solve ?allowed ?move_cost ?consts ~n_layers blocks =
  let nb = Array.length blocks in
  if nb = 0 then invalid_arg "Layered: blocks must be nonempty";
  if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  let move_cost =
    match move_cost with
    | Some f -> f
    | None ->
        if nb > 1 then invalid_arg "Layered: several blocks need ~move_cost";
        fun _ _ -> 0
  in
  let const ~layer i =
    match consts with None -> 0 | Some f -> f ~layer ~member:i
  in
  let rs = Array.map (compile ~n_layers) blocks in
  let bases = Array.make (nb + 1) 0 in
  for i = 0 to nb - 1 do
    bases.(i + 1) <- bases.(i) + width_of rs.(i)
  done;
  let total = bases.(nb) in
  Obs.Span.with_
    ~name:(if nb = 1 then "layered.solve" else "layered.solve_group")
  @@ fun () ->
  let sc = scratch ~width:total ~n_layers in
  let cur = sc.cur and best = sc.best and from = sc.from in
  for i = 0 to nb - 1 do
    let blk = blocks.(i) and b = bases.(i) in
    let off0 = blk.offsets.(0) and c0 = const ~layer:0 i in
    for j = 0 to bases.(i + 1) - b - 1 do
      cur.(b + j) <-
        (if admits allowed ~layer:0 (b + j) then blk.vectors.{off0 + j} + c0
         else inf)
    done
  done;
  let minv = Array.make nb inf and minr = Array.make nb (-1) in
  let nodes = ref 0 and steps = ref 0 in
  for layer = 1 to n_layers - 1 do
    if nb > 1 then
      (* per-block entry minima over the previous layer: the single
         source every outgoing fabric edge of that block reroots at *)
      for i = 0 to nb - 1 do
        minv.(i) <- inf;
        minr.(i) <- -1;
        for g = bases.(i) to bases.(i + 1) - 1 do
          if cur.(g) < minv.(i) then begin
            minv.(i) <- cur.(g);
            minr.(i) <- g
          end
        done
      done;
    for i = 0 to nb - 1 do
      let finite = relax_block sc rs.(i) ~b:bases.(i) in
      nodes := !nodes + finite;
      steps := !steps + relax_steps rs.(i) ~finite
    done;
    if nb > 1 then
      for i = 0 to nb - 1 do
        let cv = ref inf and cf = ref (-1) in
        for jm = 0 to nb - 1 do
          if jm <> i && minv.(jm) <> inf then begin
            let c = minv.(jm) + move_cost jm i in
            if c < !cv then begin
              cv := c;
              cf := minr.(jm)
            end
          end
        done;
        if !cf >= 0 then begin
          for g = bases.(i) to bases.(i + 1) - 1 do
            if !cv < best.(g) then begin
              best.(g) <- !cv;
              from.(g) <- !cf
            end
          done;
          steps := !steps + bases.(i + 1) - bases.(i)
        end
      done;
    let cb = layer * total in
    for i = 0 to nb - 1 do
      let blk = blocks.(i) and b = bases.(i) in
      let voff = blk.offsets.(layer) - b and ci = const ~layer i in
      for g = b to bases.(i + 1) - 1 do
        let bg = best.(g) in
        if bg <> inf && admits allowed ~layer g then begin
          cur.(g) <- bg + blk.vectors.{voff + g} + ci;
          sc.choice.(cb + g) <- from.(g)
        end
        else cur.(g) <- inf
      done
    done
  done;
  report_solve ~nodes:!nodes ~edges:!steps;
  finish sc ~width:total ~n_layers
