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

(* Linear axis: cost(0) = Σ j·m(j); stepping the center right by one adds
   one hop for every unit of weight at or left of the old center and
   removes one for every unit strictly right of it. *)
let axis_cost_line m =
  let e = Array.length m in
  let dst = Array.make e 0 in
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
  done;
  dst

(* Circular axis: every point sits either on the forward arc (offsets
   1 .. ⌊E/2⌋ from the center) or the backward arc (offsets
   1 .. ⌈E/2⌉-1); an antipodal point on an even ring is charged once, on
   the forward side, matching min(o, E-o). Prefix sums over the doubled
   ring make both arc sums O(1) per center:
     forward(c)  = Σ_{i=c+1..c+hf} (i-c)·m(i mod E)
     backward(c) = Σ_{i=c+E-hb..c+E-1} (c+E-i)·m(i mod E) *)
let axis_cost_circle m =
  let e = Array.length m in
  let dst = Array.make e 0 in
  if e > 1 then begin
    let hf = e / 2 and hb = (e - 1) / 2 in
    let p = Array.make ((2 * e) + 1) 0 and q = Array.make ((2 * e) + 1) 0 in
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
  end;
  dst

let axis_cost ~wrap m = if wrap then axis_cost_circle m else axis_cost_line m

(* The lowest minimizer of [axis_cost] and its cost. A line's cost is
   convex with steps 2·left(c) - total, so it falls until the weighted
   median, the first [c] with 2·left(c) >= total, and no array is built;
   a ring's is not convex, so every center is priced. *)
let axis_min ~wrap m =
  if wrap then begin
    let c = axis_cost_circle m in
    let best = ref 0 in
    Array.iteri (fun i v -> if v < c.(!best) then best := i) c;
    (!best, c.(!best))
  end
  else begin
    let e = Array.length m in
    let total = ref 0 and cost = ref 0 in
    for j = 0 to e - 1 do
      total := !total + m.(j);
      cost := !cost + (j * m.(j))
    done;
    let c = ref 0 and left = ref m.(0) in
    while !c < e - 1 && 2 * !left < !total do
      cost := !cost + (2 * !left) - !total;
      incr c;
      left := !left + m.(!c)
    done;
    (!c, !cost)
  end

(* [v.(y·cols + x) = cx.(x) + cy.(y)]: the marginals fix both extents. *)
let vector_of_marginals ~wrap (mx, my) =
  Pathgraph.Layered.(
    to_array (Axis_sum (axis_cost ~wrap mx, axis_cost ~wrap my)))

let marginals_of mesh window ~data =
  Reftrace.Window.marginals window ~data ~cols:(Pim.Mesh.cols mesh)
    ~rows:(Pim.Mesh.rows mesh)

(* O(refs), with no materialized profile list. *)
let reference_cost mesh window ~data ~center =
  let acc = ref 0 in
  Reftrace.Window.iter_profile window data (fun ~proc ~count ->
      acc := !acc + (count * Pim.Mesh.distance mesh center proc));
  !acc

let cost_vector mesh window ~data =
  count_build ();
  vector_of_marginals ~wrap:(Pim.Mesh.wraps mesh)
    (marginals_of mesh window ~data)

(* The lowest index on each axis, hence the lowest row-major rank — the
   same tie order as the direct cost walk's ascending scan (and as the
   full-vector ascending argmin every scheduler fallback uses). *)
let argmin_of_marginals ~wrap (mx, my) =
  let x, cx = axis_min ~wrap mx and y, cy = axis_min ~wrap my in
  ((y * Array.length mx) + x, cx + cy)

let local_optimal_center mesh window ~data =
  fst
    (argmin_of_marginals ~wrap:(Pim.Mesh.wraps mesh)
       (marginals_of mesh window ~data))

let path_cost mesh pairs ~data =
  if pairs = [] then invalid_arg "Cost.path_cost: empty window list";
  let rec go prev acc = function
    | [] -> acc
    | (window, center) :: rest ->
        let refc = reference_cost mesh window ~data ~center in
        let move =
          match prev with
          | None -> 0
          | Some p -> Pim.Mesh.distance mesh p center
        in
        go (Some center) (acc + refc + move) rest
  in
  go None 0 pairs
