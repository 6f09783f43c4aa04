let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let test_static () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 5, 1) ]; [ (0, 9, 1) ] ] in
  let s = Sched.Scds.schedule (Sched.Problem.create mesh t) in
  check_int "never moves" 0 (Sched.Schedule.moves s)

let test_picks_merged_optimum () =
  (* datum 0: rank 5 three times in w0, rank 6 once in w1 -> rank 5 wins
     overall *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 5, 3) ]; [ (0, 6, 1) ] ] in
  check_int "merged center" 5 (Sched.Scds.center_of (Sched.Problem.create mesh t) ~data:0)

let test_capacity_spills_to_next_best () =
  (* two data both want rank 5; capacity 1 forces the lighter one away *)
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 5, 3); (1, 5, 2) ] ] in
  let s = Sched.Scds.schedule (Gen.bounded 1 mesh t) in
  check_int "heavy datum keeps the center" 5
    (Sched.Schedule.center s ~window:0 ~data:0);
  let spilled = Sched.Schedule.center s ~window:0 ~data:1 in
  Alcotest.(check bool) "lighter datum adjacent" true
    (Pim.Mesh.distance mesh 5 spilled = 1);
  Alcotest.(check (option (triple int int int)))
    "capacity respected" None
    (Sched.Schedule.check_capacity s ~capacity:1)

let test_infeasible_capacity_rejected () =
  let t = Gen.trace mesh ~n_data:20 [ [ (0, 0, 1) ] ] in
  Alcotest.check_raises "too small"
    (Invalid_argument
       "Scds.schedule: 20 data cannot fit in 16 processors of capacity 1")
    (fun () -> ignore (Sched.Scds.schedule (Gen.bounded 1 mesh t)))

let test_example_matches_paper_structure () =
  (* On the worked example, SCDS picks the overall hot spot (1,0). *)
  let o = Sched.Example.scds () in
  Alcotest.(check bool)
    "static at (1,0)" true
    (Array.for_all
       (fun c -> Pim.Coord.equal c (Pim.Coord.make ~x:1 ~y:0))
       o.Sched.Example.centers)

let prop_unconstrained_scds_is_best_static =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make ~name:"SCDS matches brute-force best static placement"
    ~count:100 arb (fun t ->
      let s = Sched.Scds.schedule (Sched.Problem.create mesh t) in
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let best, _ = Sched.Brute_force.optimal_static_cost mesh t ~data in
        let windows = Reftrace.Trace.windows t in
        let center = Sched.Schedule.center s ~window:0 ~data in
        let actual =
          Sched.Cost.path_cost mesh
            (List.map (fun w -> (w, center)) windows)
            ~data
        in
        if actual <> best then ok := false
      done;
      !ok)

let prop_capacity_never_violated =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make ~name:"SCDS respects capacity" ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s = Sched.Scds.schedule (Gen.bounded capacity mesh t) in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let suite =
  [
    Gen.case "static" test_static;
    Gen.case "picks merged optimum" test_picks_merged_optimum;
    Gen.case "capacity spills to next best" test_capacity_spills_to_next_best;
    Gen.case "infeasible capacity rejected" test_infeasible_capacity_rejected;
    Gen.case "worked example" test_example_matches_paper_structure;
    Gen.to_alcotest prop_unconstrained_scds_is_best_static;
    Gen.to_alcotest prop_capacity_never_violated;
  ]
