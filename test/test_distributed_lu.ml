let mesh = Gen.mesh44
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_reference_lu_known_factorization () =
  (* [[4;3];[6;3]] = L [[1;0];[1.5;1]] * U [[4;3];[0;-1.5]] *)
  let m = Exec.Distributed_lu.reference_lu [| [| 4.; 3. |]; [| 6.; 3. |] |] in
  Alcotest.(check (float 1e-12)) "l21" 1.5 m.(1).(0);
  Alcotest.(check (float 1e-12)) "u22" (-1.5) m.(1).(1);
  Alcotest.(check (float 1e-12)) "u11" 4. m.(0).(0)

let test_reference_lu_rejects_singular () =
  Alcotest.check_raises "zero pivot"
    (Failure "Distributed_lu.reference_lu: zero pivot") (fun () ->
      ignore
        (Exec.Distributed_lu.reference_lu [| [| 0.; 1. |]; [| 1.; 0. |] |]))

let test_random_matrix_deterministic_and_dominant () =
  let a = Exec.Distributed_lu.random_matrix ~seed:3 8 in
  let b = Exec.Distributed_lu.random_matrix ~seed:3 8 in
  check_bool "deterministic" true (a = b);
  Array.iteri
    (fun i row ->
      let off =
        Array.fold_left ( +. ) 0. row -. row.(i)
      in
      check_bool "diagonally dominant" true (row.(i) > off /. 2.))
    a

let run_with algo n =
  let matrix = Exec.Distributed_lu.random_matrix ~seed:42 n in
  let trace = Workloads.Lu.trace ~n mesh in
  let schedule = Sched.Scheduler.solve (Sched.Problem.create mesh trace) algo in
  Exec.Distributed_lu.run mesh ~matrix schedule

let test_factors_match_reference_under_every_schedule () =
  List.iter
    (fun algo ->
      let r = run_with algo 8 in
      check_bool
        (Sched.Scheduler.name algo ^ ": numerically exact")
        true
        (r.Exec.Distributed_lu.max_error < 1e-9))
    Sched.Scheduler.[ Row_wise; Scds; Lomcds; Gomcds; Lomcds_grouped ]

let test_measured_traffic_equals_analytic () =
  List.iter
    (fun algo ->
      let r = run_with algo 8 in
      check_int
        (Sched.Scheduler.name algo ^ ": traffic = analytic cost")
        r.Exec.Distributed_lu.analytic r.Exec.Distributed_lu.traffic)
    Sched.Scheduler.[ Row_wise; Scds; Lomcds; Gomcds ]

let test_better_schedules_move_less_data () =
  let sf = run_with Sched.Scheduler.Row_wise 12 in
  let g = run_with Sched.Scheduler.Gomcds 12 in
  check_bool "gomcds execution is cheaper" true
    (g.Exec.Distributed_lu.traffic < sf.Exec.Distributed_lu.traffic)

let test_shape_mismatch_rejected () =
  let matrix = Exec.Distributed_lu.random_matrix ~seed:1 8 in
  let wrong =
    Sched.Scheduler.solve
      (Sched.Problem.create mesh (Workloads.Lu.trace ~n:6 mesh))
      Sched.Scheduler.Scds
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument
       "Distributed_lu.run: schedule does not match the LU trace shape")
    (fun () -> ignore (Exec.Distributed_lu.run mesh ~matrix wrong))

let prop_random_matrices_factor_exactly =
  QCheck.Test.make ~name:"distributed = sequential LU on random instances"
    ~count:25
    QCheck.(pair (int_range 2 10) (int_range 1 10_000))
    (fun (n, seed) ->
      let matrix = Exec.Distributed_lu.random_matrix ~seed n in
      let trace = Workloads.Lu.trace ~n mesh in
      let schedule = Sched.Gomcds.schedule (Sched.Problem.create mesh trace) in
      let r = Exec.Distributed_lu.run mesh ~matrix schedule in
      r.Exec.Distributed_lu.max_error < 1e-9
      && r.Exec.Distributed_lu.traffic = r.Exec.Distributed_lu.analytic)

let suite =
  [
    Gen.case "reference LU known factorization" test_reference_lu_known_factorization;
    Gen.case "reference LU rejects singular" test_reference_lu_rejects_singular;
    Gen.case "random matrix deterministic" test_random_matrix_deterministic_and_dominant;
    Gen.case "factors match under every schedule" test_factors_match_reference_under_every_schedule;
    Gen.case "traffic equals analytic" test_measured_traffic_equals_analytic;
    Gen.case "better schedules move less" test_better_schedules_move_less_data;
    Gen.case "shape mismatch rejected" test_shape_mismatch_rejected;
    Gen.to_alcotest prop_random_matrices_factor_exactly;
  ]
