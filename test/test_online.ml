let mesh = Gen.mesh44
let problem t = Sched.Problem.create mesh t
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_window0_serves_from_initial () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 15, 9) ]; [ (0, 15, 9) ] ] in
  let s = Sched.Online.schedule ~initial:[| 0; 0 |] (problem t) in
  check_int "w0 at initial" 0 (Sched.Schedule.center s ~window:0 ~data:0);
  (* strong persistent pull: moves at w1 *)
  check_int "w1 migrated" 15 (Sched.Schedule.center s ~window:1 ~data:0)

let test_theta_zero_limit_never_moves () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let initial = Sched.Baseline.row_wise mesh (Reftrace.Trace.space t) in
  let s = Sched.Online.schedule ~theta:1e-9 ~initial (problem t) in
  check_int "static" 0 (Sched.Schedule.moves s);
  check_int "equals initial static cost"
    (Sched.Schedule.total_cost (Sched.Baseline.schedule initial mesh t) t)
    (Sched.Schedule.total_cost s t)

let test_weak_pull_ignored () =
  (* one weak far reference: hysteresis keeps the datum home *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 0, 5) ]; [ (0, 15, 1) ] ] in
  let s = Sched.Online.schedule ~theta:1. ~initial:[| 0 |] (problem t) in
  check_int "stays" 0 (Sched.Schedule.center s ~window:1 ~data:0)

let test_theta_validation () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 0, 1) ] ] in
  Alcotest.check_raises "bad theta"
    (Invalid_argument "Online.schedule: theta must be positive") (fun () ->
      ignore (Sched.Online.schedule ~theta:0. (problem t)));
  Alcotest.check_raises "bad initial"
    (Invalid_argument "Online.schedule: initial placement has the wrong length")
    (fun () -> ignore (Sched.Online.schedule ~initial:[| 0; 0 |] (problem t)))

let test_overpacked_initial_rejected () =
  let t = Gen.trace mesh ~n_data:3 [ [ (0, 0, 1) ] ] in
  Alcotest.check_raises "overpacked"
    (Invalid_argument
       "Online.schedule: initial placement packs 3 > 1 data at rank 0")
    (fun () ->
      ignore
        (Sched.Online.schedule ~initial:[| 0; 0; 0 |] (Gen.bounded 1 mesh t)))

let prop_offline_adapt_is_lower_bound =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make
    ~name:"offline Adapt from the same initial never costs more" ~count:60
    arb (fun t ->
      let initial = Sched.Baseline.row_wise mesh (Reftrace.Trace.space t) in
      let online =
        Sched.Schedule.total_cost (Sched.Online.schedule ~initial (problem t)) t
      in
      let r = Sched.Adapt.recovery ~initial (problem t) in
      r.Sched.Adapt.adaptive <= online)

let prop_capacity_respected =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make ~name:"online schedules respect capacity" ~count:60 arb
    (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s = Sched.Online.schedule (Gen.bounded capacity mesh t) in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let prop_above_global_lower_bound =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make ~name:"online cost >= per-datum lower bound" ~count:60 arb
    (fun t ->
      Sched.Schedule.total_cost (Sched.Online.schedule (problem t)) t
      >= Sched.Bounds.lower_bound_in (problem t))

let test_hysteresis_monotone_on_drifting_workload () =
  (* on the CODE kernel, too little theta under-moves and huge theta
     over-chases; theta = 2 should beat both extremes *)
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let cost theta =
    Sched.Schedule.total_cost (Sched.Online.schedule ~theta (problem t)) t
  in
  check_bool "moving helps at all" true (cost 2. < cost 1e-9)

let suite =
  [
    Gen.case "window 0 serves from initial" test_window0_serves_from_initial;
    Gen.case "theta->0 never moves" test_theta_zero_limit_never_moves;
    Gen.case "weak pull ignored" test_weak_pull_ignored;
    Gen.case "theta validation" test_theta_validation;
    Gen.case "overpacked initial rejected" test_overpacked_initial_rejected;
    Gen.to_alcotest prop_offline_adapt_is_lower_bound;
    Gen.to_alcotest prop_capacity_respected;
    Gen.to_alcotest prop_above_global_lower_bound;
    Gen.case "hysteresis helps on drift" test_hysteresis_monotone_on_drifting_workload;
  ]
