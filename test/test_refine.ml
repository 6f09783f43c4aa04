let mesh = Gen.mesh44

let capacity_for t =
  let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
  Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2

let test_noop_on_unconstrained_gomcds () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let g = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let refined, stats = Sched.Refine.refine (Sched.Problem.create mesh t) g in
  Alcotest.(check int) "no improvement possible" 0 stats.Sched.Refine.improved;
  Alcotest.(check bool) "schedule unchanged" true
    (Sched.Schedule.equal g refined)

let test_input_not_mutated () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  let capacity = capacity_for t in
  let seed = Sched.Grouping.schedule (Gen.bounded capacity mesh t) in
  let before = Sched.Schedule.total_cost seed t in
  let _refined, _ = Sched.Refine.refine (Gen.bounded capacity mesh t) seed in
  Alcotest.(check int) "seed untouched" before
    (Sched.Schedule.total_cost seed t)

let test_improves_grouped_lu () =
  let t = Workloads.Lu.trace ~n:16 mesh in
  let capacity = capacity_for t in
  let seed = Sched.Grouping.schedule (Gen.bounded capacity mesh t) in
  let refined, stats = Sched.Refine.refine (Gen.bounded capacity mesh t) seed in
  Alcotest.(check bool) "strictly better" true
    (Sched.Schedule.total_cost refined t < Sched.Schedule.total_cost seed t);
  Alcotest.(check bool) "stats recorded" true (stats.Sched.Refine.saved > 0);
  Alcotest.(check (option (triple int int int)))
    "capacity kept" None
    (Sched.Schedule.check_capacity refined ~capacity)

let test_saved_matches_cost_delta () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  let capacity = capacity_for t in
  let seed = Sched.Grouping.schedule (Gen.bounded capacity mesh t) in
  let refined, stats = Sched.Refine.refine (Gen.bounded capacity mesh t) seed in
  Alcotest.(check int)
    "saved = before - after" stats.Sched.Refine.saved
    (Sched.Schedule.total_cost seed t - Sched.Schedule.total_cost refined t)

let test_rejects_infeasible_input () =
  let t = Gen.trace mesh ~n_data:3 [ [ (0, 0, 1) ] ] in
  let bad = Sched.Schedule.constant mesh ~n_windows:1 [| 0; 0; 0 |] in
  Alcotest.check_raises "violating seed"
    (Invalid_argument
       "Refine.refine: input schedule already violates capacity (window 0, \
        rank 0, load 3 > 1)") (fun () ->
      ignore (Sched.Refine.refine (Gen.bounded 1 mesh t) bad))

let test_fixed_point_is_idempotent () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  let capacity = capacity_for t in
  let refined = Sched.Refine.best_schedule (Gen.bounded capacity mesh t) in
  let again, stats =
    Sched.Refine.refine (Gen.bounded capacity mesh t) refined
  in
  Alcotest.(check int) "no further gain" 0 stats.Sched.Refine.improved;
  Alcotest.(check bool) "stable" true (Sched.Schedule.equal refined again)

let prop_never_worse_and_feasible =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make ~name:"refinement never worsens and stays feasible"
    ~count:60 arb (fun t ->
      let capacity = capacity_for t in
      List.for_all
        (fun seed_algo ->
          let problem = Gen.bounded capacity mesh t in
          let seed = Sched.Scheduler.solve problem seed_algo in
          let refined, _ = Sched.Refine.refine problem seed in
          Sched.Schedule.total_cost refined t
          <= Sched.Schedule.total_cost seed t
          && Option.is_none (Sched.Schedule.check_capacity refined ~capacity))
        Sched.Scheduler.[ Scds; Lomcds; Gomcds; Lomcds_grouped ])

let prop_best_refined_dominates_components =
  let arb = Gen.trace_arbitrary ~max_data:10 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"best-refined <= every constructive scheduler (same capacity)"
    ~count:50 arb (fun t ->
      let capacity = capacity_for t in
      let best =
        Sched.Schedule.total_cost
          (Sched.Refine.best_schedule (Gen.bounded capacity mesh t))
          t
      in
      List.for_all
        (fun a ->
          best
          <= Sched.Schedule.total_cost
               (Sched.Scheduler.solve (Gen.bounded capacity mesh t) a)
               t)
        Sched.Scheduler.[ Scds; Lomcds; Gomcds; Lomcds_grouped; Gomcds_grouped ])

let prop_refined_respects_lower_bound =
  let arb = Gen.trace_arbitrary ~max_data:8 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make ~name:"refined cost >= per-datum lower bound" ~count:50 arb
    (fun t ->
      let capacity = capacity_for t in
      let best = Sched.Refine.best_schedule (Gen.bounded capacity mesh t) in
      Sched.Schedule.total_cost best t >= Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t))

let suite =
  [
    Gen.case "noop on unconstrained gomcds" test_noop_on_unconstrained_gomcds;
    Gen.case "input not mutated" test_input_not_mutated;
    Gen.case "improves grouped LU" test_improves_grouped_lu;
    Gen.case "saved matches cost delta" test_saved_matches_cost_delta;
    Gen.case "rejects infeasible input" test_rejects_infeasible_input;
    Gen.case "fixed point idempotent" test_fixed_point_is_idempotent;
    Gen.to_alcotest prop_never_worse_and_feasible;
    Gen.to_alcotest prop_best_refined_dominates_components;
    Gen.to_alcotest prop_refined_respects_lower_bound;
  ]
