(* The explicit and full-table forms of the layered DP, kept as oracles
   for the production DP [Pathgraph.Layered.solve]: the callback DP
   (closures per edge, O(n·m²)), the dense full-table DP and the
   materialized cost-graph for [Pathgraph.Shortest_path]. Verbatim,
   instrumentation aside. *)

type problem = {
  n_layers : int;
  width : int;
  enter_cost : int -> int;
  step_cost : layer:int -> int -> int -> int;
}

let validate p =
  if p.n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  if p.width <= 0 then invalid_arg "Layered: width must be positive"

(* Forward DP over layers. [dist.(j)] is the best cost of reaching node [j]
   of the current layer; [choice.(layer).(j)] records the predecessor. *)
let solve_general p ~allowed =
  validate p;
  let inf = max_int in
  let dist = Array.make p.width inf in
  let choice = Array.make_matrix p.n_layers p.width (-1) in
  for j = 0 to p.width - 1 do
    if allowed ~layer:0 j then dist.(j) <- p.enter_cost j
  done;
  for layer = 1 to p.n_layers - 1 do
    let next = Array.make p.width inf in
    for k = 0 to p.width - 1 do
      if allowed ~layer k then begin
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
    Array.blit next 0 dist 0 p.width
  done;
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
  let inf = max_int in
  let cur = Array.make width inf in
  let choice = Array.make_matrix n_layers width (-1) in
  let v0 = vectors.(0) in
  for j = 0 to width - 1 do
    if allowed ~layer:0 j then cur.(j) <- v0.(j)
  done;
  let best = Array.make width inf in
  let from = Array.make width (-1) in
  for layer = 1 to n_layers - 1 do
    Array.fill best 0 width inf;
    for j = 0 to width - 1 do
      let dj = cur.(j) in
      if dj <> inf then begin
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
  let g = Pathgraph.Digraph.create ~n_nodes:(2 + (p.n_layers * p.width)) in
  for j = 0 to p.width - 1 do
    Pathgraph.Digraph.add_edge g ~src:source ~dst:(node_id ~layer:0 j)
      ~weight:(p.enter_cost j)
  done;
  for layer = 1 to p.n_layers - 1 do
    for j = 0 to p.width - 1 do
      for k = 0 to p.width - 1 do
        Pathgraph.Digraph.add_edge g
          ~src:(node_id ~layer:(layer - 1) j)
          ~dst:(node_id ~layer k)
          ~weight:(p.step_cost ~layer j k)
      done
    done
  done;
  for j = 0 to p.width - 1 do
    Pathgraph.Digraph.add_edge g ~src:(node_id ~layer:(p.n_layers - 1) j) ~dst:sink
      ~weight:0
  done;
  (g, source, sink, node_id)
