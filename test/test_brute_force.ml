let check_int = Alcotest.(check int)
let mesh = Gen.mesh22

let test_single_window_optimum () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 3, 4); (0, 0, 1) ] ] in
  let cost, seq = Sched.Brute_force.optimal_cost mesh t ~data:0 in
  (* rank 3 serves 4 refs locally; rank 0 ref costs 2 *)
  check_int "cost" 2 cost;
  check_int "center" 3 seq.(0)

let test_static_optimum () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 0, 1) ]; [ (0, 3, 1) ] ] in
  let cost, center = Sched.Brute_force.optimal_static_cost mesh t ~data:0 in
  (* any rank: total distance to opposite corners = 2 *)
  check_int "cost" 2 cost;
  Alcotest.(check bool) "valid center" true (center >= 0 && center < 4)

let test_movement_beats_static_when_profitable () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 0, 9) ]; [ (0, 3, 9) ] ] in
  let dynamic, _ = Sched.Brute_force.optimal_cost mesh t ~data:0 in
  let static, _ = Sched.Brute_force.optimal_static_cost mesh t ~data:0 in
  (* dynamic: serve both locally, pay one migration of distance 2 *)
  check_int "dynamic" 2 dynamic;
  check_int "static" 18 static

let test_total_optimal_cost_sums () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 0, 2); (1, 3, 2) ] ] in
  check_int "both served locally" 0
    (Sched.Brute_force.total_optimal_cost_in (Sched.Problem.create mesh t))

let test_refuses_large_instances () =
  let big = Gen.mesh44 in
  let specs = List.init 8 (fun _ -> [ (0, 0, 1) ]) in
  let t = Gen.trace big ~n_data:1 specs in
  Alcotest.check_raises "guard"
    (Invalid_argument "Brute_force.optimal_cost: instance too large")
    (fun () -> ignore (Sched.Brute_force.optimal_cost big t ~data:0))

let prop_pruning_is_safe =
  (* the branch-and-bound must agree with the DP, which is exhaustive in
     effect; this guards the pruning condition *)
  let arb =
    Gen.trace_arbitrary ~mesh:Gen.mesh22 ~max_data:2 ~max_windows:5
      ~max_count:3 ()
  in
  QCheck.Test.make ~name:"brute force = layered DP" ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let bf, _ = Sched.Brute_force.optimal_cost Gen.mesh22 t ~data in
        let dp, _ = Oracle.Gomcds.optimal_centers Gen.mesh22 t ~data in
        if bf <> dp then ok := false
      done;
      !ok)

let suite =
  [
    Gen.case "single window optimum" test_single_window_optimum;
    Gen.case "static optimum" test_static_optimum;
    Gen.case "movement beats static" test_movement_beats_static_when_profitable;
    Gen.case "total optimal cost" test_total_optimal_cost_sums;
    Gen.case "refuses large instances" test_refuses_large_instances;
    Gen.to_alcotest prop_pruning_is_safe;
  ]
