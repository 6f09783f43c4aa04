let mesh = Gen.mesh44

let test_lower_bound_equals_unconstrained_gomcds () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  Alcotest.(check int)
    "bound = unbounded GOMCDS total"
    (Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t)
    (Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t))

let test_static_bound_equals_unconstrained_scds () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  Alcotest.(check int)
    "static bound = unbounded SCDS total"
    (Sched.Schedule.total_cost (Sched.Scds.schedule (Sched.Problem.create mesh t)) t)
    (Sched.Bounds.static_lower_bound_in (Sched.Problem.create mesh t))

let test_dynamic_bound_not_above_static () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  Alcotest.(check bool)
    "dynamic <= static" true
    (Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t) <= Sched.Bounds.static_lower_bound_in (Sched.Problem.create mesh t))

let test_gap () =
  Alcotest.(check (float 1e-9)) "25%" 25. (Sched.Bounds.gap ~bound:100 ~cost:125);
  Alcotest.(check (float 1e-9)) "exact" 0. (Sched.Bounds.gap ~bound:100 ~cost:100);
  Alcotest.(check (float 1e-9)) "zero bound" 0. (Sched.Bounds.gap ~bound:0 ~cost:7)

let prop_bound_below_every_schedule =
  let arb = Gen.trace_arbitrary ~max_data:8 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make
    ~name:"lower bound <= every scheduler, bounded or not" ~count:60 arb
    (fun t ->
      let bound = Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t) in
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      List.for_all
        (fun a ->
          bound
          <= Sched.Schedule.total_cost
               (Sched.Scheduler.solve (Gen.bounded capacity mesh t) a)
               t
          && bound
             <= Sched.Schedule.total_cost
                  (Sched.Scheduler.solve (Sched.Problem.create mesh t) a)
                  t)
        Sched.Scheduler.[ Row_wise; Scds; Lomcds; Gomcds; Best_refined ])

let suite =
  [
    Gen.case "bound = unconstrained gomcds" test_lower_bound_equals_unconstrained_gomcds;
    Gen.case "static bound = unconstrained scds" test_static_bound_equals_unconstrained_scds;
    Gen.case "dynamic <= static" test_dynamic_bound_not_above_static;
    Gen.case "gap" test_gap;
    Gen.to_alcotest prop_bound_below_every_schedule;
  ]
