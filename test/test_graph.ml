(* Tests for Pathgraph: Digraph, Topo, Shortest_path, Layered. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Digraph ------------------------------------------------------------ *)

let test_digraph_basics () =
  let g = Pathgraph.Digraph.create ~n_nodes:3 in
  check_int "no edges" 0 (Pathgraph.Digraph.n_edges g);
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:1 ~weight:5;
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:2 ~weight:7;
  check_int "two edges" 2 (Pathgraph.Digraph.n_edges g);
  Alcotest.(check (list (pair int int)))
    "succ in insertion order"
    [ (1, 5); (2, 7) ]
    (Pathgraph.Digraph.succ g 0);
  Alcotest.(check (list int))
    "in degrees" [ 0; 1; 1 ]
    (Array.to_list (Pathgraph.Digraph.in_degrees g))

let test_digraph_validation () =
  Alcotest.check_raises "empty graph"
    (Invalid_argument "Digraph.create: n_nodes must be positive") (fun () ->
      ignore (Pathgraph.Digraph.create ~n_nodes:0));
  let g = Pathgraph.Digraph.create ~n_nodes:2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Digraph: node 9 out of range") (fun () ->
      Pathgraph.Digraph.add_edge g ~src:0 ~dst:9 ~weight:1)

let test_digraph_negative_flag () =
  let g = Pathgraph.Digraph.create ~n_nodes:2 in
  check_bool "clean" false (Pathgraph.Digraph.has_negative_weight g);
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:1 ~weight:(-1);
  check_bool "flagged" true (Pathgraph.Digraph.has_negative_weight g)

(* -- Topo ---------------------------------------------------------------- *)

let test_topo_sorts_dag () =
  let g = Pathgraph.Digraph.create ~n_nodes:4 in
  Pathgraph.Digraph.add_edge g ~src:2 ~dst:3 ~weight:0;
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:2 ~weight:0;
  Pathgraph.Digraph.add_edge g ~src:1 ~dst:2 ~weight:0;
  match Pathgraph.Topo.sort g with
  | None -> Alcotest.fail "expected a DAG"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      check_bool "0 before 2" true (pos.(0) < pos.(2));
      check_bool "1 before 2" true (pos.(1) < pos.(2));
      check_bool "2 before 3" true (pos.(2) < pos.(3))

let test_topo_detects_cycle () =
  let g = Pathgraph.Digraph.create ~n_nodes:2 in
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:1 ~weight:0;
  Pathgraph.Digraph.add_edge g ~src:1 ~dst:0 ~weight:0;
  check_bool "cyclic" false (Pathgraph.Topo.is_dag g);
  Alcotest.check_raises "sort_exn"
    (Invalid_argument "Topo.sort_exn: graph has a cycle") (fun () ->
      ignore (Pathgraph.Topo.sort_exn g))

(* -- Shortest_path ------------------------------------------------------- *)

let diamond () =
  (* 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 1 -> 3 (5), 2 -> 3 (1) *)
  let g = Pathgraph.Digraph.create ~n_nodes:5 in
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:1 ~weight:1;
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:2 ~weight:4;
  Pathgraph.Digraph.add_edge g ~src:1 ~dst:2 ~weight:1;
  Pathgraph.Digraph.add_edge g ~src:1 ~dst:3 ~weight:5;
  Pathgraph.Digraph.add_edge g ~src:2 ~dst:3 ~weight:1;
  g

let test_dijkstra_diamond () =
  let r = Pathgraph.Shortest_path.dijkstra (diamond ()) ~source:0 in
  Alcotest.(check (option int))
    "dist to 3" (Some 3)
    (Pathgraph.Shortest_path.distance r ~target:3);
  Alcotest.(check (option (list int)))
    "path" (Some [ 0; 1; 2; 3 ])
    (Pathgraph.Shortest_path.path r ~target:3);
  Alcotest.(check (option int))
    "unreachable" None
    (Pathgraph.Shortest_path.distance r ~target:4)

let test_dag_matches_dijkstra () =
  let g = diamond () in
  let a = Pathgraph.Shortest_path.dijkstra g ~source:0 in
  let b = Pathgraph.Shortest_path.dag g ~source:0 in
  Alcotest.(check (list int))
    "same distances"
    (Array.to_list a.Pathgraph.Shortest_path.dist)
    (Array.to_list b.Pathgraph.Shortest_path.dist)

let test_dijkstra_rejects_negative () =
  let g = Pathgraph.Digraph.create ~n_nodes:2 in
  Pathgraph.Digraph.add_edge g ~src:0 ~dst:1 ~weight:(-2);
  Alcotest.check_raises "negative"
    (Invalid_argument "Shortest_path.dijkstra: negative edge weight")
    (fun () -> ignore (Pathgraph.Shortest_path.dijkstra g ~source:0))

let random_dag_arbitrary =
  (* Random DAG: edges only from lower to higher node ids. *)
  let gen =
    let open QCheck.Gen in
    int_range 2 12 >>= fun n ->
    list_size (int_range 0 (3 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 9))
    >>= fun edges ->
    let g = Pathgraph.Digraph.create ~n_nodes:n in
    List.iter
      (fun (a, b, w) ->
        if a < b then Pathgraph.Digraph.add_edge g ~src:a ~dst:b ~weight:w)
      edges;
    return g
  in
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Pathgraph.Digraph.pp g)
    gen

let prop_dag_equals_dijkstra =
  QCheck.Test.make ~name:"DAG relaxation = Dijkstra on random DAGs" ~count:100
    random_dag_arbitrary (fun g ->
      let a = Pathgraph.Shortest_path.dijkstra g ~source:0 in
      let b = Pathgraph.Shortest_path.dag g ~source:0 in
      a.Pathgraph.Shortest_path.dist = b.Pathgraph.Shortest_path.dist)

(* -- Layered ------------------------------------------------------------- *)

let small_problem =
  (* 3 layers x 2 nodes; costs favour switching to node 1 in layer 1. *)
  {
    Oracle.Layered.n_layers = 3;
    width = 2;
    enter_cost = (fun j -> if j = 0 then 0 else 10);
    step_cost =
      (fun ~layer j k ->
        let switch = if j <> k then 1 else 0 in
        let occupancy =
          match (layer, k) with 1, 1 -> 0 | 1, 0 -> 5 | _, _ -> 0
        in
        switch + occupancy);
  }

let test_layered_solve () =
  let cost, centers = Oracle.Layered.solve small_problem in
  (* enter node 0 free, pay the single switch into node 1 at layer 1, then
     stay: cheaper than the occupancy-5 of staying at node 0 *)
  check_int "cost" 1 cost;
  Alcotest.(check (list int))
    "witness" [ 0; 1; 1 ]
    (Array.to_list centers)

let test_layered_agrees_with_digraph () =
  let g, source, sink, _node_id =
    Oracle.Layered.to_digraph small_problem
  in
  let r = Pathgraph.Shortest_path.dag g ~source in
  let cost, _ = Oracle.Layered.solve small_problem in
  Alcotest.(check (option int))
    "same optimum" (Some cost)
    (Pathgraph.Shortest_path.distance r ~target:sink)

let test_layered_filtered () =
  (* forbid node 1 in layer 1: forced to pay the occupancy 5 *)
  let allowed ~layer j = not (layer = 1 && j = 1) in
  match Oracle.Layered.solve_filtered small_problem ~allowed with
  | None -> Alcotest.fail "feasible problem"
  | Some (cost, centers) ->
      check_int "cost" 5 cost;
      check_int "layer1 at node 0" 0 centers.(1)

let test_layered_infeasible () =
  let allowed ~layer j = not (layer = 1 && (j = 0 || j = 1)) in
  Alcotest.(check bool)
    "no path" true
    (Option.is_none
       (Oracle.Layered.solve_filtered small_problem ~allowed))

let test_layered_single_layer () =
  let p =
    {
      Oracle.Layered.n_layers = 1;
      width = 3;
      enter_cost = (fun j -> 5 - j);
      step_cost = (fun ~layer:_ _ _ -> assert false);
    }
  in
  let cost, centers = Oracle.Layered.solve p in
  check_int "picks cheapest" 3 cost;
  check_int "node 2" 2 centers.(0)

let layered_random_arbitrary =
  let gen =
    let open QCheck.Gen in
    triple (int_range 1 4) (int_range 1 4) (int_range 0 1000)
    >>= fun (n_layers, width, seed) ->
    return (n_layers, width, seed)
  in
  QCheck.make
    ~print:(fun (l, w, s) -> Printf.sprintf "layers=%d width=%d seed=%d" l w s)
    gen

let problem_of (n_layers, width, seed) =
  (* deterministic pseudo-random costs from the seed *)
  let cost a b c = 1 + ((seed + (31 * a) + (7 * b) + (3 * c)) mod 13) in
  {
    Oracle.Layered.n_layers;
    width;
    enter_cost = (fun j -> cost 0 0 j);
    step_cost = (fun ~layer j k -> cost layer j k);
  }

let prop_layered_dp_equals_explicit_graph =
  QCheck.Test.make ~name:"layered DP = explicit cost-graph shortest path"
    ~count:100 layered_random_arbitrary (fun spec ->
      let p = problem_of spec in
      let dp_cost, _ = Oracle.Layered.solve p in
      let g, source, sink, _ = Oracle.Layered.to_digraph p in
      let r = Pathgraph.Shortest_path.dag g ~source in
      Pathgraph.Shortest_path.distance r ~target:sink = Some dp_cost)

let suite =
  [
    Gen.case "digraph basics" test_digraph_basics;
    Gen.case "digraph validation" test_digraph_validation;
    Gen.case "digraph negative flag" test_digraph_negative_flag;
    Gen.case "topo sorts DAG" test_topo_sorts_dag;
    Gen.case "topo detects cycle" test_topo_detects_cycle;
    Gen.case "dijkstra diamond" test_dijkstra_diamond;
    Gen.case "dag matches dijkstra" test_dag_matches_dijkstra;
    Gen.case "dijkstra rejects negative" test_dijkstra_rejects_negative;
    Gen.to_alcotest prop_dag_equals_dijkstra;
    Gen.case "layered solve" test_layered_solve;
    Gen.case "layered agrees with digraph" test_layered_agrees_with_digraph;
    Gen.case "layered filtered" test_layered_filtered;
    Gen.case "layered infeasible" test_layered_infeasible;
    Gen.case "layered single layer" test_layered_single_layer;
    Gen.to_alcotest prop_layered_dp_equals_explicit_graph;
  ]
