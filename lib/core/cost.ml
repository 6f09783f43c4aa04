(* The paper's cost model. x-y routing distance decomposes per axis,
   dist(c, p) = dx(cx, px) + dy(cy, py), so

     cost(c) = Σ_p w(p)·dist(c, p)
             = Σ_x mx(x)·dx(cx, x) + Σ_y my(y)·dy(cy, y)

   where mx / my are the window's per-axis weight marginals
   ({!Reftrace.Window.marginals}). Each axis cost array is built in O(E)
   from prefix sums (circular prefix sums on a torus), so a whole cost
   vector costs O(P + refs) instead of the direct O(P · refs) walk (kept
   as the test oracle [Oracle.Cost_naive]), and the minimum — the
   paper's Definition 4 — splits into two independent axis minima. *)

let count_build () =
  if !Obs.enabled then Obs.Metrics.incr "cost.separable_builds"

let axis_dist ~wrap ~extent a b =
  let direct = abs (a - b) in
  if wrap then min direct (extent - direct) else direct

(* Linear axis: cost(0) = Σ j·m(j); stepping the center right by one adds
   one hop for every unit of weight at or left of the old center and
   removes one for every unit strictly right of it. Writes every entry of
   [dst] (length = extent), so callers may hand it stale scratch. *)
let axis_cost_line_into m ~dst =
  let e = Array.length m in
  let total = ref 0 and c0 = ref 0 in
  for j = 0 to e - 1 do
    total := !total + m.(j);
    c0 := !c0 + (j * m.(j))
  done;
  dst.(0) <- !c0;
  let left = ref 0 in
  for c = 0 to e - 2 do
    left := !left + m.(c);
    dst.(c + 1) <- dst.(c) + (2 * !left) - !total
  done

(* Circular axis: every point sits either on the forward arc (offsets
   1 .. ⌊E/2⌋ from the center) or the backward arc (offsets
   1 .. ⌈E/2⌉-1); an antipodal point on an even ring is charged once, on
   the forward side, matching min(o, E-o). Prefix sums over the doubled
   ring make both arc sums O(1) per center:
     forward(c)  = Σ_{i=c+1..c+hf} (i-c)·m(i mod E)
     backward(c) = Σ_{i=c+E-hb..c+E-1} (c+E-i)·m(i mod E)
   [p] and [q] are prefix-sum scratch of length ≥ 2·extent + 1 whose
   index 0 must be 0 — the loop rewrites entries 1 .. 2·extent and never
   touches index 0, so zero-initialized scratch stays reusable. *)
let axis_cost_circle_into m ~p ~q ~dst =
  let e = Array.length m in
  if e = 1 then dst.(0) <- 0
  else begin
    let hf = e / 2 and hb = (e - 1) / 2 in
    for i = 0 to (2 * e) - 1 do
      let w = m.(if i < e then i else i - e) in
      p.(i + 1) <- p.(i) + w;
      q.(i + 1) <- q.(i) + (i * w)
    done;
    for c = 0 to e - 1 do
      let fwd =
        q.(c + hf + 1) - q.(c + 1) - (c * (p.(c + hf + 1) - p.(c + 1)))
      in
      let bwd =
        ((c + e) * (p.(c + e) - p.(c + e - hb)))
        - (q.(c + e) - q.(c + e - hb))
      in
      dst.(c) <- fwd + bwd
    done
  end

let axis_cost_circle m =
  let e = Array.length m in
  let dst = Array.make e 0 in
  let p = Array.make ((2 * e) + 1) 0 and q = Array.make ((2 * e) + 1) 0 in
  axis_cost_circle_into m ~p ~q ~dst;
  dst

let axis_cost_line m =
  let dst = Array.make (Array.length m) 0 in
  axis_cost_line_into m ~dst;
  dst

let axis_cost ~wrap m = if wrap then axis_cost_circle m else axis_cost_line m

(* Shared assembly loop: writes the cols*rows cost entries into [dst]
   starting at [off]. [vector_of_marginals] allocates a fresh array;
   [fill_of_marginals] targets a caller-owned arena row, so a prefetch
   batch reuses one flat buffer instead of one heap array per vector. *)
let fill_of_marginals ~wrap ~cols ~rows (mx, my) ~dst ~off =
  let cx = axis_cost ~wrap mx and cy = axis_cost ~wrap my in
  for y = 0 to rows - 1 do
    let base = cy.(y) and r = off + (y * cols) in
    for x = 0 to cols - 1 do
      dst.(r + x) <- base + cx.(x)
    done
  done

(* Same assembly into a bigarray arena slab ({!Pathgraph.Layered.buffer});
   every entry of the row is written, so the slab never needs the
   zero-initialization an [int array] allocation would pay. *)
let fill_slab_of_marginals ~wrap ~cols ~rows (mx, my)
    ~(dst : Pathgraph.Layered.buffer) ~off =
  let cx = axis_cost ~wrap mx and cy = axis_cost ~wrap my in
  for y = 0 to rows - 1 do
    let base = cy.(y) and r = off + (y * cols) in
    for x = 0 to cols - 1 do
      dst.{r + x} <- base + cx.(x)
    done
  done

(* One marginals pass per window: every (marginals, slab row) pair of the
   batch is assembled through the same axis-cost and prefix-sum scratch,
   so a window's worth of rows costs one set of allocations instead of
   four short-lived arrays per row. Counts one separable build per row
   — the per-row accounting is what the pinned counter tests and the
   marginals cache both key on — plus one [cost.batch_fills] per
   non-empty batch. *)
let fill_window_batch ~wrap ~cols ~rows items =
  match items with
  | [] -> ()
  | _ :: _ ->
      if !Obs.enabled then Obs.Metrics.incr "cost.batch_fills";
      let cx = Array.make cols 0 and cy = Array.make rows 0 in
      let px, qx, py, qy =
        if wrap then
          ( Array.make ((2 * cols) + 1) 0,
            Array.make ((2 * cols) + 1) 0,
            Array.make ((2 * rows) + 1) 0,
            Array.make ((2 * rows) + 1) 0 )
        else ([||], [||], [||], [||])
      in
      List.iter
        (fun ((mx, my), ((dst : Pathgraph.Layered.buffer), off)) ->
          count_build ();
          if wrap then begin
            axis_cost_circle_into mx ~p:px ~q:qx ~dst:cx;
            axis_cost_circle_into my ~p:py ~q:qy ~dst:cy
          end
          else begin
            axis_cost_line_into mx ~dst:cx;
            axis_cost_line_into my ~dst:cy
          end;
          for y = 0 to rows - 1 do
            let base = cy.(y) and r = off + (y * cols) in
            for x = 0 to cols - 1 do
              dst.{r + x} <- base + cx.(x)
            done
          done)
        items

let vector_of_marginals ~wrap ~cols ~rows m =
  let v = Array.make (cols * rows) 0 in
  fill_of_marginals ~wrap ~cols ~rows m ~dst:v ~off:0;
  v

let marginals_of mesh window ~data =
  Reftrace.Window.marginals window ~data ~cols:(Pim.Mesh.cols mesh)
    ~rows:(Pim.Mesh.rows mesh)

(* O(refs), allocation-free: one axis decomposition per referencing
   processor instead of a materialized profile list. *)
let reference_cost mesh window ~data ~center =
  let cols = Pim.Mesh.cols mesh and rows = Pim.Mesh.rows mesh in
  let wrap = Pim.Mesh.wraps mesh in
  let cx = Pim.Mesh.x_of_rank mesh center
  and cy = Pim.Mesh.y_of_rank mesh center in
  let acc = ref 0 in
  Reftrace.Window.iter_profile window data (fun ~proc ~count ->
      let px = Pim.Mesh.x_of_rank mesh proc
      and py = Pim.Mesh.y_of_rank mesh proc in
      acc :=
        !acc
        + count
          * (axis_dist ~wrap ~extent:cols cx px
            + axis_dist ~wrap ~extent:rows cy py));
  !acc

let cost_vector mesh window ~data =
  count_build ();
  vector_of_marginals ~wrap:(Pim.Mesh.wraps mesh) ~cols:(Pim.Mesh.cols mesh)
    ~rows:(Pim.Mesh.rows mesh)
    (marginals_of mesh window ~data)

let argmin_axis a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) < a.(!best) then best := i
  done;
  !best

(* The minimizers of cx(x) + cy(y) are exactly (argmin cx) × (argmin cy);
   taking the lowest index on each axis picks the lowest row-major rank,
   the same tie order as the direct cost walk's ascending scan (and as the full-vector
   ascending argmin every scheduler fallback uses). *)
let argmin_of_marginals ~wrap ~cols ~rows:_ (mx, my) =
  let cx = axis_cost ~wrap mx and cy = axis_cost ~wrap my in
  let bx = argmin_axis cx and by = argmin_axis cy in
  ((by * cols) + bx, cx.(bx) + cy.(by))

let local_optimal_center mesh window ~data =
  let wrap = Pim.Mesh.wraps mesh
  and cols = Pim.Mesh.cols mesh
  and rows = Pim.Mesh.rows mesh in
  fst
    (argmin_of_marginals ~wrap ~cols ~rows (marginals_of mesh window ~data))

let movement_cost mesh ~from_ ~to_ = Pim.Mesh.distance mesh from_ to_

let path_cost mesh pairs ~data =
  if pairs = [] then invalid_arg "Cost.path_cost: empty window list";
  let rec go prev acc = function
    | [] -> acc
    | (window, center) :: rest ->
        let refc = reference_cost mesh window ~data ~center in
        let move =
          match prev with
          | None -> 0
          | Some p -> movement_cost mesh ~from_:p ~to_:center
        in
        go (Some center) (acc + refc + move) rest
  in
  go None 0 pairs
