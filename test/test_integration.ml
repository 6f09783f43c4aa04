(* Cross-module integration: the analytic cost model, the schedulers, the
   workload generators and the message-level simulator must all agree. *)

let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let simulated_cost schedule trace =
  let rounds = Sched.Schedule.to_rounds schedule trace in
  (Pim.Simulator.run mesh rounds).Pim.Simulator.total_cost

let test_simulator_agrees_on_benchmark () =
  let t = Workloads.Benchmarks.trace Workloads.Benchmarks.B1 ~n:8 mesh in
  List.iter
    (fun algo ->
      let s = Sched.Scheduler.solve (Sched.Problem.create mesh t) algo in
      check_int
        (Sched.Scheduler.name algo ^ ": simulated = analytic")
        (Sched.Schedule.total_cost s t)
        (simulated_cost s t))
    Sched.Scheduler.all

let test_simulator_splits_movement_and_reference () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let s =
    Sched.Scheduler.solve (Sched.Problem.create mesh t) Sched.Scheduler.Gomcds
  in
  let b = Sched.Schedule.cost s t in
  let report = Pim.Simulator.run mesh (Sched.Schedule.to_rounds s t) in
  check_int "migration" b.Sched.Schedule.movement
    report.Pim.Simulator.total_migration;
  check_int "reference" b.Sched.Schedule.reference
    report.Pim.Simulator.total_reference

let prop_simulator_agrees_on_random_traces =
  let arb = Gen.trace_arbitrary ~max_data:6 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make ~name:"simulated cost = analytic cost (all algorithms)"
    ~count:50 arb (fun t ->
      List.for_all
        (fun algo ->
          let s = Sched.Scheduler.solve (Sched.Problem.create mesh t) algo in
          Sched.Schedule.total_cost s t = simulated_cost s t)
        Sched.Scheduler.all)

let test_paper_capacity_respected_end_to_end () =
  List.iter
    (fun b ->
      let n = 8 in
      let t = Workloads.Benchmarks.trace b ~n mesh in
      let capacity = Workloads.Benchmarks.capacity b ~n mesh in
      List.iter
        (fun algo ->
          let s = Sched.Scheduler.solve (Gen.bounded capacity mesh t) algo in
          match Sched.Schedule.check_capacity s ~capacity with
          | None -> ()
          | Some (w, rank, load) ->
              Alcotest.failf "%s on b%s: window %d rank %d load %d > %d"
                (Sched.Scheduler.name algo)
                (Workloads.Benchmarks.label b)
                w rank load capacity)
        Sched.Scheduler.
          [ Row_wise; Column_wise; Scds; Lomcds; Gomcds; Lomcds_grouped ])
    Workloads.Benchmarks.all

let test_hierarchy_on_paper_benchmarks_unbounded () =
  List.iter
    (fun b ->
      let t = Workloads.Benchmarks.trace b ~n:8 mesh in
      let total algo =
        Sched.Schedule.total_cost
          (Sched.Scheduler.solve (Sched.Problem.create mesh t) algo)
          t
      in
      let label = Workloads.Benchmarks.label b in
      let sf = total Sched.Scheduler.Row_wise in
      let scds = total Sched.Scheduler.Scds in
      let lomcds = total Sched.Scheduler.Lomcds in
      let gomcds = total Sched.Scheduler.Gomcds in
      Alcotest.(check bool) ("b" ^ label ^ ": scds <= sf") true (scds <= sf);
      Alcotest.(check bool)
        ("b" ^ label ^ ": lomcds <= scds")
        true (lomcds <= scds);
      Alcotest.(check bool)
        ("b" ^ label ^ ": gomcds <= lomcds")
        true (gomcds <= lomcds))
    Workloads.Benchmarks.all

let test_gomcds_equals_per_datum_optimum_on_lu () =
  (* whole-schedule total must equal the sum of per-datum DP optima *)
  let t = Workloads.Lu.trace ~n:6 mesh in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
  let expected = ref 0 in
  for data = 0 to n - 1 do
    expected := !expected + fst (Oracle.Gomcds.optimal_centers mesh t ~data)
  done;
  check_int "sum of optima" !expected (Sched.Schedule.total_cost s t)

let test_window_granularity_tradeoff_runs () =
  (* the ablation path: rebuilding LU with coarser windows must preserve
     total references and never crash the schedulers *)
  let t = Workloads.Lu.trace ~n:8 mesh in
  List.iter
    (fun k ->
      let coarse = Gen.coarsen k t in
      check_int
        (Printf.sprintf "refs preserved at k=%d" k)
        (Reftrace.Trace.total_references t)
        (Reftrace.Trace.total_references coarse);
      let s = Sched.Gomcds.schedule (Sched.Problem.create mesh coarse) in
      Alcotest.(check bool)
        "cost non-negative" true
        (Sched.Schedule.total_cost s coarse >= 0))
    [ 1; 2; 3; 7 ]

let test_single_window_trace_degenerates_gracefully () =
  let t = Gen.trace mesh ~n_data:3 [ [ (0, 5, 2); (1, 3, 1); (2, 3, 1) ] ] in
  List.iter
    (fun algo ->
      let s = Sched.Scheduler.solve (Sched.Problem.create mesh t) algo in
      check_int (Sched.Scheduler.name algo ^ " no moves") 0
        (Sched.Schedule.moves s))
    Sched.Scheduler.all

let test_scale_smoke_8x8_mesh () =
  (* a larger instance end-to-end: 32x32 data on an 8x8 array *)
  let big = Pim.Mesh.square 8 in
  let t = Workloads.Lu.trace ~n:32 big in
  let capacity =
    Pim.Memory.capacity_for ~data_count:(32 * 32) ~mesh:big ~headroom:2
  in
  let problem = Gen.bounded capacity big t in
  let s = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
  let total = Sched.Schedule.total_cost s t in
  Alcotest.(check bool) "nontrivial cost" true (total > 0);
  Alcotest.(check (option (triple int int int)))
    "capacity respected" None
    (Sched.Schedule.check_capacity s ~capacity);
  let baseline =
    Sched.Schedule.total_cost
      (Sched.Scheduler.solve problem Sched.Scheduler.Row_wise)
      t
  in
  Alcotest.(check bool) "halves the baseline" true (2 * total < baseline)

let suite =
  [
    Gen.case "scale smoke: 32x32 on 8x8" test_scale_smoke_8x8_mesh;
    Gen.case "simulator agrees on benchmark" test_simulator_agrees_on_benchmark;
    Gen.case "simulator splits move/ref" test_simulator_splits_movement_and_reference;
    Gen.to_alcotest prop_simulator_agrees_on_random_traces;
    Gen.case "paper capacity end-to-end" test_paper_capacity_respected_end_to_end;
    Gen.case "hierarchy on paper benchmarks" test_hierarchy_on_paper_benchmarks_unbounded;
    Gen.case "gomcds = per-datum optima on LU" test_gomcds_equals_per_datum_optimum_on_lu;
    Gen.case "window granularity ablation" test_window_granularity_tradeoff_runs;
    Gen.case "single-window degenerate" test_single_window_trace_degenerates_gracefully;
  ]
