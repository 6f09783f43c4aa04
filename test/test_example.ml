let coord = Alcotest.testable Pim.Coord.pp Pim.Coord.equal

let test_trace_shape () =
  Alcotest.(check int)
    "four windows" 4
    (Reftrace.Trace.n_windows Sched.Example.trace);
  Alcotest.(check int)
    "single datum" 1
    (Reftrace.Data_space.size (Reftrace.Trace.space Sched.Example.trace));
  Oracle.Trace.validate Sched.Example.trace Sched.Example.mesh

let test_scds_is_static () =
  let o = Sched.Example.scds () in
  Alcotest.(check int) "no movement" 0 o.Sched.Example.movement;
  Alcotest.check coord "merged hot spot"
    (Pim.Coord.make ~x:1 ~y:0)
    o.Sched.Example.centers.(0)

let test_lomcds_chases_the_feint () =
  let o = Sched.Example.lomcds () in
  (* window 1's local optimum is the feint at (1,3) *)
  Alcotest.check coord "feint followed"
    (Pim.Coord.make ~x:1 ~y:3)
    o.Sched.Example.centers.(1);
  Alcotest.(check bool) "pays movement" true (o.Sched.Example.movement > 0)

let test_gomcds_ignores_the_feint () =
  let o = Sched.Example.gomcds () in
  Alcotest.check coord "stays near home"
    (Pim.Coord.make ~x:1 ~y:0)
    o.Sched.Example.centers.(1)

let test_cost_ordering_matches_paper () =
  let scds = Sched.Example.scds ()
  and lomcds = Sched.Example.lomcds ()
  and gomcds = Sched.Example.gomcds () in
  (* The paper's §3.3 ordering: GOMCDS < LOMCDS < SCDS on this example. *)
  Alcotest.(check bool)
    "gomcds strictly best" true
    (gomcds.Sched.Example.total < lomcds.Sched.Example.total);
  Alcotest.(check bool)
    "lomcds beats scds here" true
    (lomcds.Sched.Example.total < scds.Sched.Example.total)

let test_all_returns_three () =
  Alcotest.(check (list string))
    "order" [ "SCDS"; "LOMCDS"; "GOMCDS" ]
    (List.map (fun o -> o.Sched.Example.algorithm) (Sched.Example.all ()))

let test_outcome_totals_consistent () =
  List.iter
    (fun o ->
      Alcotest.(check int)
        (o.Sched.Example.algorithm ^ " total")
        (o.Sched.Example.reference + o.Sched.Example.movement)
        o.Sched.Example.total)
    (Sched.Example.all ())

let suite =
  [
    Gen.case "trace shape" test_trace_shape;
    Gen.case "scds static" test_scds_is_static;
    Gen.case "lomcds chases the feint" test_lomcds_chases_the_feint;
    Gen.case "gomcds ignores the feint" test_gomcds_ignores_the_feint;
    Gen.case "cost ordering matches paper" test_cost_ordering_matches_paper;
    Gen.case "all returns three" test_all_returns_three;
    Gen.case "outcome totals consistent" test_outcome_totals_consistent;
  ]
