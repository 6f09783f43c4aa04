(* Tests for Schedule_serial, Sweep and Energy. *)

let mesh = Gen.mesh44
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Schedule_serial ------------------------------------------------------ *)

let test_schedule_roundtrip () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let s' = Sched.Schedule_serial.of_string (Sched.Schedule_serial.to_string s) in
  check_bool "equal" true (Sched.Schedule.equal s s');
  check_int "same cost" (Sched.Schedule.total_cost s t)
    (Sched.Schedule.total_cost s' t)

let test_schedule_roundtrip_torus () =
  let torus = Pim.Mesh.square ~wrap:true 4 in
  let t = Workloads.Code_kernel.trace ~n:8 torus in
  let s = Sched.Gomcds.schedule (Sched.Problem.create torus t) in
  let s' = Sched.Schedule_serial.of_string (Sched.Schedule_serial.to_string s) in
  check_bool "torus preserved" true
    (Pim.Mesh.wraps (Sched.Schedule.mesh s'));
  check_bool "equal" true (Sched.Schedule.equal s s')

let test_schedule_file_roundtrip () =
  let t = Workloads.Lu.trace ~n:6 mesh in
  let s = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
  let path = Filename.temp_file "pimsched" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sched.Schedule_serial.save s path;
      check_bool "equal" true
        (Sched.Schedule.equal s (Sched.Schedule_serial.load path)))

let check_fails input expected =
  Alcotest.check_raises "parse error" (Failure expected) (fun () ->
      ignore (Sched.Schedule_serial.of_string input))

let test_schedule_parse_errors () =
  check_fails "shape 1 1\n"
    "Schedule_serial.of_string: line 1: shape before mesh";
  check_fails "mesh 4 4\nw 0 0\n"
    "Schedule_serial.of_string: line 2: window row before shape";
  check_fails "mesh 4 4\nshape 1 2\nw 0 3\n"
    "Schedule_serial.of_string: line 3: expected 2 ranks, got 1";
  check_fails "mesh 4 4\nshape 1 1\nw 0 99\n"
    "Schedule_serial.of_string: line 3: Schedule.set_center: invalid rank 99";
  check_fails "mesh 4 4\nshape 2 1\nw 0 0\n"
    "Schedule_serial.of_string: 1 of 2 windows present";
  check_fails "mesh 4 4\nshape 1 1\nw 1 0\n"
    "Schedule_serial.of_string: line 3: expected window 0, got 1";
  (* a second shape line would drop the rows read so far *)
  check_fails "mesh 4 4\nshape 1 1\nw 0 0\nshape 2 1\nw 1 0\n"
    "Schedule_serial.of_string: line 4: duplicate shape"

(* Golden plan text: the exact bytes of a gomcds plan, pinned so a change
   to the plan representation or its codec cannot drift the format. *)
let golden_trace =
  Gen.trace mesh ~n_data:3
    [
      [ (0, 5, 2); (1, 14, 1); (2, 3, 2) ];
      [ (0, 12, 3); (2, 3, 1) ];
      [ (1, 0, 2); (2, 10, 4); (0, 6, 1) ];
    ]

let check_golden host expected =
  let s =
    Sched.Scheduler.solve
      (Sched.Problem.create host golden_trace)
      Sched.Scheduler.Gomcds
  in
  Alcotest.(check string)
    "plan text" expected
    (Sched.Schedule_serial.to_string s)

let test_golden_mesh () = check_golden mesh
    "# pim-sched schedule v1\nmesh 4 4\nshape 3 3\nw 0 5 0 3\nw 1 12 0 3\n\
     w 2 4 0 10\n"

let test_golden_torus () =
  check_golden
    (Pim.Mesh.torus ~rows:3 ~cols:5)
    "# pim-sched schedule v1\ntorus 3 5\nshape 3 3\nw 0 5 0 3\nw 1 12 0 3\n\
     w 2 6 0 10\n"

let prop_schedule_roundtrip_random =
  let arb = Gen.trace_arbitrary ~max_data:6 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make ~name:"schedule serialization roundtrip" ~count:50 arb
    (fun t ->
      let s = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
      Sched.Schedule.equal s
        (Sched.Schedule_serial.of_string (Sched.Schedule_serial.to_string s)))

(* -- Sweep ----------------------------------------------------------------- *)

let test_sweep_shape_and_csv () =
  let instances =
    [
      ("lu8", Workloads.Lu.trace ~n:8 mesh);
      ("code8", Workloads.Code_kernel.trace ~n:8 mesh);
    ]
  in
  let algos = Sched.Scheduler.[ Row_wise; Scds; Gomcds ] in
  let rows = Sched.Sweep.run mesh instances algos in
  check_int "rows" 6 (List.length rows);
  let csv = Sched.Sweep.to_csv rows in
  let lines = String.split_on_char '\n' csv in
  check_int "header + 6 + trailing" 8 (List.length lines);
  check_bool "header" true
    (List.hd lines
    = "workload,algorithm,total,reference,movement,moves,improvement_pct,gap_pct");
  (* row-wise improvement is 0 by definition *)
  List.iter
    (fun r ->
      if r.Sched.Sweep.algorithm = "row-wise" then
        Alcotest.(check (float 1e-9)) "baseline" 0. r.Sched.Sweep.improvement)
    rows

let test_sweep_gap_nonnegative () =
  let rows =
    Sched.Sweep.run mesh
      [ ("lu", Workloads.Lu.trace ~n:8 mesh) ]
      Sched.Scheduler.[ Scds; Lomcds; Gomcds; Best_refined ]
  in
  List.iter
    (fun r ->
      check_bool (r.Sched.Sweep.algorithm ^ " gap >= 0") true
        (r.Sched.Sweep.gap >= -1e-9))
    rows

let test_sweep_unbounded_headroom () =
  let rows =
    Sched.Sweep.run ~headroom:0 mesh
      [ ("lu", Workloads.Lu.trace ~n:8 mesh) ]
      [ Sched.Scheduler.Gomcds ]
  in
  match rows with
  | [ r ] ->
      (* unbounded GOMCDS hits the lower bound exactly *)
      Alcotest.(check (float 1e-9)) "zero gap" 0. r.Sched.Sweep.gap
  | _ -> Alcotest.fail "one row expected"

(* -- Energy ----------------------------------------------------------------- *)

let test_energy_arithmetic () =
  let report =
    Pim.Timed_simulator.run mesh
      [
        {
          Pim.Simulator.migrations = [];
          references = [ Pim.Router.message ~src:0 ~dst:1 ~volume:2 ];
        };
      ]
  in
  (* 2 volume-hops, 2 cycles *)
  let params = { Pim.Energy.per_hop = 10.; leak = 0.05 } in
  let transport, leakage = Pim.Energy.breakdown ~params mesh report in
  Alcotest.(check (float 1e-9)) "transport" 20. transport;
  Alcotest.(check (float 1e-9)) "leakage" (0.05 *. 16. *. 2.) leakage;
  Alcotest.(check (float 1e-9))
    "sum" (transport +. leakage)
    (Pim.Energy.of_report ~params mesh report)

let test_energy_prefers_good_schedules () =
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let energy algo =
    let s = Sched.Scheduler.solve (Sched.Problem.create mesh t) algo in
    Pim.Energy.of_report mesh
      (Pim.Timed_simulator.run mesh (Sched.Schedule.to_rounds s t))
  in
  check_bool "gomcds cheaper in joules" true
    (energy Sched.Scheduler.Gomcds < energy Sched.Scheduler.Row_wise)

let suite =
  [
    Gen.case "schedule roundtrip" test_schedule_roundtrip;
    Gen.case "schedule roundtrip torus" test_schedule_roundtrip_torus;
    Gen.case "schedule file roundtrip" test_schedule_file_roundtrip;
    Gen.case "schedule parse errors" test_schedule_parse_errors;
    Gen.to_alcotest prop_schedule_roundtrip_random;
    Gen.case "golden plan text: 4x4 mesh" test_golden_mesh;
    Gen.case "golden plan text: 3x5 torus" test_golden_torus;
    Gen.case "sweep shape and csv" test_sweep_shape_and_csv;
    Gen.case "sweep gap nonnegative" test_sweep_gap_nonnegative;
    Gen.case "sweep unbounded headroom" test_sweep_unbounded_headroom;
    Gen.case "energy arithmetic" test_energy_arithmetic;
    Gen.case "energy prefers good schedules" test_energy_prefers_good_schedules;
  ]
