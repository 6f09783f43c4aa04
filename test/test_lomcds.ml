let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let test_chases_local_optima () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 0, 5) ]; [ (0, 15, 5) ] ] in
  let s = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
  check_int "w0 center" 0 (Sched.Schedule.center s ~window:0 ~data:0);
  check_int "w1 center" 15 (Sched.Schedule.center s ~window:1 ~data:0)

let test_unreferenced_window_keeps_position () =
  let t =
    Gen.trace mesh ~n_data:2
      [ [ (0, 9, 2) ]; [ (1, 3, 1) ]; [ (0, 9, 2) ] ]
  in
  let s = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
  Alcotest.(check (list int))
    "datum 0 stays through idle window" [ 9; 9; 9 ]
    (Array.to_list (Sched.Schedule.centers_of_data s ~data:0))

let test_late_datum_preplaced () =
  (* datum 0 first referenced in window 1: it should sit at that window's
     center from the start, paying no movement. *)
  let t = Gen.trace mesh ~n_data:2 [ [ (1, 0, 1) ]; [ (0, 12, 3) ] ] in
  let s = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
  Alcotest.(check (list int))
    "pre-placed at its first center" [ 12; 12 ]
    (Array.to_list (Sched.Schedule.centers_of_data s ~data:0))

let test_local_centers_accessor () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 4, 1) ]; [ (0, 4, 0) ] ] in
  (* second window has a 0-count add: datum effectively unreferenced *)
  let cs = Sched.Lomcds.local_centers mesh t ~data:0 in
  Alcotest.(check (array (option int))) "centers" [| Some 4; None |] cs

let test_example_matches_paper_structure () =
  let o =
    Sched.Lomcds.schedule
      (Sched.Problem.create Sched.Example.mesh Sched.Example.trace)
  in
  (* LOMCDS must pick each window's local optimum for D *)
  List.iteri
    (fun w window ->
      check_int
        (Printf.sprintf "window %d local center" w)
        (Sched.Cost.local_optimal_center Sched.Example.mesh window ~data:0)
        (Sched.Schedule.center o ~window:w ~data:0))
    (Reftrace.Trace.windows Sched.Example.trace)

let prop_reference_cost_is_pointwise_minimal =
  let arb = Gen.trace_arbitrary ~max_data:3 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"LOMCDS pays minimal reference cost in every window (unbounded)"
    ~count:100 arb (fun t ->
      let s = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
      let ok = ref true in
      List.iteri
        (fun w window ->
          List.iter
            (fun data ->
              let center = Sched.Schedule.center s ~window:w ~data in
              let actual =
                Sched.Cost.reference_cost mesh window ~data ~center
              in
              let best =
                Sched.Cost.reference_cost mesh window ~data
                  ~center:(Sched.Cost.local_optimal_center mesh window ~data)
              in
              if actual <> best then ok := false)
            (Reftrace.Window.referenced_data window))
        (Reftrace.Trace.windows t);
      !ok)

let prop_capacity_never_violated =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make ~name:"LOMCDS respects capacity" ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s = Sched.Lomcds.schedule (Gen.bounded capacity mesh t) in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let prop_no_gratuitous_movement =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make
    ~name:"LOMCDS only moves data into windows that reference them"
    ~count:100 arb (fun t ->
      let s = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      List.iteri
        (fun w window ->
          if w > 0 then
            for data = 0 to n - 1 do
              let here = Sched.Schedule.center s ~window:w ~data in
              let before = Sched.Schedule.center s ~window:(w - 1) ~data in
              if
                here <> before
                && Reftrace.Window.references window data = 0
              then ok := false
            done)
        (Reftrace.Trace.windows t);
      !ok)

let suite =
  [
    Gen.case "chases local optima" test_chases_local_optima;
    Gen.case "idle window keeps position" test_unreferenced_window_keeps_position;
    Gen.case "late datum pre-placed" test_late_datum_preplaced;
    Gen.case "local_centers accessor" test_local_centers_accessor;
    Gen.case "worked example" test_example_matches_paper_structure;
    Gen.to_alcotest prop_reference_cost_is_pointwise_minimal;
    Gen.to_alcotest prop_capacity_never_violated;
    Gen.to_alcotest prop_no_gratuitous_movement;
  ]
