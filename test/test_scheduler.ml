let mesh = Gen.mesh44

let test_name_roundtrip () =
  List.iter
    (fun a ->
      Alcotest.(check string)
        "roundtrip"
        (Sched.Scheduler.name a)
        (Sched.Scheduler.name
           (Sched.Scheduler.of_name (Sched.Scheduler.name a))))
    Sched.Scheduler.all

let test_of_name_rejects_unknown () =
  match Sched.Scheduler.of_name "fancy" with
  | _ -> Alcotest.fail "of_name accepted an unknown name"
  | exception Invalid_argument msg ->
      let contains needle =
        let n = String.length needle and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the offender" true (contains "\"fancy\"");
      (* the error should teach the valid spellings *)
      List.iter
        (fun valid ->
          Alcotest.(check bool) ("lists " ^ valid) true (contains valid))
        Sched.Scheduler.valid_names

let test_of_name_case_insensitive () =
  List.iter
    (fun a ->
      let n = Sched.Scheduler.name a in
      Alcotest.(check bool)
        (n ^ " uppercase") true
        (Sched.Scheduler.of_name (String.uppercase_ascii n) = a);
      Alcotest.(check bool)
        (n ^ " padded") true
        (Sched.Scheduler.of_name ("  " ^ n ^ "\t") = a))
    Sched.Scheduler.all

let prop_of_name_inverts_name =
  let arb = QCheck.oneofl ~print:Sched.Scheduler.name Sched.Scheduler.all in
  QCheck.Test.make ~name:"of_name (name a) = a for every algorithm" ~count:100
    arb (fun a -> Sched.Scheduler.of_name (Sched.Scheduler.name a) = a)

let test_improvement () =
  Alcotest.(check (float 1e-9))
    "half" 50.
    (Sched.Scheduler.improvement ~baseline:100 ~cost:50);
  Alcotest.(check (float 1e-9))
    "worse is negative" (-25.)
    (Sched.Scheduler.improvement ~baseline:100 ~cost:125);
  Alcotest.(check (float 1e-9))
    "zero baseline" 0.
    (Sched.Scheduler.improvement ~baseline:0 ~cost:10)

let test_dispatch_all () =
  let t = Gen.trace mesh ~n_data:4 [ [ (0, 5, 2); (1, 3, 1) ]; [ (2, 9, 1) ] ] in
  List.iter
    (fun a ->
      let s, breakdown =
        Sched.Scheduler.evaluate_in (Sched.Problem.create mesh t) a
      in
      Alcotest.(check int)
        (Sched.Scheduler.name a ^ " consistent")
        breakdown.Sched.Schedule.total
        (Sched.Schedule.total_cost s t))
    Sched.Scheduler.all

let prop_scheduler_hierarchy_unbounded =
  let arb = Gen.trace_arbitrary ~max_data:6 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make
    ~name:"unbounded: gomcds dominates; grouping never hurts lomcds"
    ~count:100 arb (fun t ->
      (* NB: lomcds <= scds is NOT a theorem — chasing local optima can pay
         more in movement than it saves — so it is not asserted here. *)
      let total a =
        Sched.Schedule.total_cost
          (Sched.Scheduler.solve (Sched.Problem.create mesh t) a)
          t
      in
      let scds = total Sched.Scheduler.Scds in
      let lomcds = total Sched.Scheduler.Lomcds in
      let gomcds = total Sched.Scheduler.Gomcds in
      let lg = total Sched.Scheduler.Lomcds_grouped in
      let gg = total Sched.Scheduler.Gomcds_grouped in
      gomcds <= lomcds && gomcds <= scds && lg <= lomcds && gg <= lg
      && gomcds <= gg)

let prop_static_baselines_never_move =
  let arb = Gen.trace_arbitrary ~max_data:6 ~max_windows:5 ~max_count:3 () in
  QCheck.Test.make ~name:"baselines and SCDS never move data" ~count:50 arb
    (fun t ->
      List.for_all
        (fun a ->
          Sched.Schedule.moves
            (Sched.Scheduler.solve (Sched.Problem.create mesh t) a)
          = 0)
        Sched.Scheduler.
          [ Row_wise; Column_wise; Block_2d; Cyclic; Random 1; Scds ])

let suite =
  [
    Gen.case "name roundtrip" test_name_roundtrip;
    Gen.case "of_name rejects unknown" test_of_name_rejects_unknown;
    Gen.case "of_name is case-insensitive" test_of_name_case_insensitive;
    Gen.to_alcotest prop_of_name_inverts_name;
    Gen.case "improvement" test_improvement;
    Gen.case "dispatch all" test_dispatch_all;
    Gen.to_alcotest prop_scheduler_hierarchy_unbounded;
    Gen.to_alcotest prop_static_baselines_never_move;
  ]
