let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let test_stays_when_moving_is_dearer () =
  (* weak pull far away in window 1: cheaper to serve remotely than to
     migrate there and back *)
  let t =
    Gen.trace mesh ~n_data:1 [ [ (0, 0, 5) ]; [ (0, 15, 1) ]; [ (0, 0, 5) ] ]
  in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  Alcotest.(check (list int))
    "stays home" [ 0; 0; 0 ]
    (Array.to_list (Sched.Schedule.centers_of_data s ~data:0))

let test_moves_when_pull_is_strong () =
  let t =
    Gen.trace mesh ~n_data:1 [ [ (0, 0, 1) ]; [ (0, 15, 9) ] ]
  in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  check_int "migrates" 15 (Sched.Schedule.center s ~window:1 ~data:0)

let test_optimal_centers_cost_matches_schedule () =
  let t =
    Gen.trace mesh ~n_data:1 [ [ (0, 3, 2) ]; [ (0, 12, 4) ]; [ (0, 7, 1) ] ]
  in
  let cost, centers = Oracle.Gomcds.optimal_centers mesh t ~data:0 in
  let pairs =
    List.mapi
      (fun w window -> (window, centers.(w)))
      (Reftrace.Trace.windows t)
  in
  check_int "DP cost = evaluated path cost" cost
    (Sched.Cost.path_cost mesh pairs ~data:0)

let test_example_beats_lomcds_and_scds () =
  let scds = Sched.Example.scds ()
  and lomcds = Sched.Example.lomcds ()
  and gomcds = Sched.Example.gomcds () in
  Alcotest.(check bool)
    "gomcds <= lomcds" true
    (gomcds.Sched.Example.total <= lomcds.Sched.Example.total);
  Alcotest.(check bool)
    "gomcds <= scds" true
    (gomcds.Sched.Example.total <= scds.Sched.Example.total)

let test_capacity_infeasible_rejected () =
  let t = Gen.trace mesh ~n_data:33 [ [ (0, 0, 1) ] ] in
  Alcotest.check_raises "too small"
    (Invalid_argument
       "Gomcds.schedule: 33 data cannot fit in 16 processors of capacity 2")
    (fun () -> ignore (Sched.Gomcds.schedule (Sched.Problem.of_capacity ~capacity:2 mesh t)))

let prop_matches_brute_force =
  let arb =
    Gen.trace_arbitrary ~mesh:Gen.mesh22 ~max_data:3 ~max_windows:4
      ~max_count:4 ()
  in
  QCheck.Test.make ~name:"GOMCDS = brute-force optimum (2x2 mesh)" ~count:100
    arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let dp_cost, _ = Oracle.Gomcds.optimal_centers Gen.mesh22 t ~data in
        let bf_cost, _ = Sched.Brute_force.optimal_cost Gen.mesh22 t ~data in
        if dp_cost <> bf_cost then ok := false
      done;
      !ok)

let prop_dominates_lomcds_and_scds =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make
    ~name:"unbounded GOMCDS <= LOMCDS and SCDS total cost" ~count:100 arb
    (fun t ->
      let total algo = Sched.Schedule.total_cost (algo mesh t) t in
      let g = total (fun m t -> Sched.Gomcds.schedule (Sched.Problem.create m t)) in
      g <= total (fun m t -> Sched.Lomcds.schedule (Sched.Problem.create m t))
      && g <= total (fun m t -> Sched.Scds.schedule (Sched.Problem.create m t)))

let prop_dp_equals_explicit_cost_graph =
  let arb = Gen.trace_arbitrary ~max_data:2 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"GOMCDS DP = shortest path on the paper's explicit cost-graph"
    ~count:50 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let dp_cost, _ = Oracle.Gomcds.optimal_centers mesh t ~data in
        let g, source, sink, _ = Oracle.Gomcds.cost_graph mesh t ~data in
        let r = Oracle.Shortest_path.dag g ~source in
        if Oracle.Shortest_path.distance r ~target:sink <> Some dp_cost
        then ok := false
      done;
      !ok)

let prop_capacity_never_violated =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make ~name:"GOMCDS respects capacity" ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s = Sched.Gomcds.schedule (Sched.Problem.of_capacity ~capacity mesh t) in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let suite =
  [
    Gen.case "stays when moving is dearer" test_stays_when_moving_is_dearer;
    Gen.case "moves when pull is strong" test_moves_when_pull_is_strong;
    Gen.case "DP cost matches evaluated cost"
      test_optimal_centers_cost_matches_schedule;
    Gen.case "worked example dominance" test_example_beats_lomcds_and_scds;
    Gen.case "capacity infeasible rejected" test_capacity_infeasible_rejected;
    Gen.to_alcotest prop_matches_brute_force;
    Gen.to_alcotest prop_dominates_lomcds_and_scds;
    Gen.to_alcotest prop_dp_equals_explicit_cost_graph;
    Gen.to_alcotest prop_capacity_never_violated;
  ]
