let mesh = Gen.mesh44
let problem t = Sched.Problem.create mesh t
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let adaptive_total ~initial trace schedule =
  (* include the charged entry migration like Adapt.recovery does *)
  let base = Sched.Schedule.total_cost schedule trace in
  let entry = ref 0 in
  for data = 0 to Sched.Schedule.n_data schedule - 1 do
    entry :=
      !entry
      + Pim.Mesh.distance mesh initial.(data)
          (Sched.Schedule.center schedule ~window:0 ~data)
  done;
  base + !entry

let test_stays_when_already_optimal () =
  (* datum referenced only at its imposed home: no movement at all *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 7, 3) ]; [ (0, 7, 2) ] ] in
  let s = Sched.Adapt.schedule ~initial:[| 7 |] (problem t) in
  Alcotest.(check (list int))
    "parked" [ 7; 7 ]
    (Array.to_list (Sched.Schedule.centers_of_data s ~data:0))

let test_entry_migration_weighed () =
  (* one weak reference far from home: cheaper to serve remotely than to
     migrate; strong pull: migrate immediately *)
  let weak = Gen.trace mesh ~n_data:1 [ [ (0, 15, 1) ] ] in
  let s = Sched.Adapt.schedule ~initial:[| 0 |] (problem weak) in
  check_int "serves remotely" 0 (Sched.Schedule.center s ~window:0 ~data:0);
  let strong = Gen.trace mesh ~n_data:1 [ [ (0, 15, 9) ] ] in
  let s = Sched.Adapt.schedule ~initial:[| 0 |] (problem strong) in
  check_int "migrates" 15 (Sched.Schedule.center s ~window:0 ~data:0)

let test_validates_initial () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 0, 1) ] ] in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Adapt: initial placement has 1 entries for 2 data")
    (fun () -> ignore (Sched.Adapt.schedule ~initial:[| 0 |] (problem t)));
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Adapt: datum 1 starts at invalid rank 99") (fun () ->
      ignore (Sched.Adapt.schedule ~initial:[| 0; 99 |] (problem t)))

let test_rejects_faulted_session () =
  (* no fault semantics: a session with any fault model is refused *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 5, 1) ] ] in
  let faulted =
    Sched.Problem.create ~fault:(Pim.Fault.create ~dead_nodes:[ 3 ] ()) mesh t
  in
  Alcotest.check_raises "faulted"
    (Invalid_argument
       "Adapt.schedule: sessions with a fault model are not supported")
    (fun () -> ignore (Sched.Adapt.schedule ~initial:[| 0 |] faulted))

let test_recovery_fields_consistent () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  let initial = Sched.Baseline.row_wise mesh (Reftrace.Trace.space t) in
  let r = Sched.Adapt.recovery ~initial (problem t) in
  check_bool "adaptive <= static" true (r.Sched.Adapt.adaptive <= r.Sched.Adapt.imposed_static);
  check_bool "optimal <= adaptive" true (r.Sched.Adapt.free_optimal <= r.Sched.Adapt.adaptive);
  check_bool "recovered in [0,1]" true
    (r.Sched.Adapt.recovered >= 0. && r.Sched.Adapt.recovered <= 1.);
  (* LU's drifting pivots leave real headroom and adaptation recovers most *)
  check_bool "meaningful recovery" true (r.Sched.Adapt.recovered > 0.5)

let test_no_headroom_counts_as_full_recovery () =
  (* imposed placement already optimal: headroom 0 -> recovered = 1 *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 4, 2) ] ] in
  let r = Sched.Adapt.recovery ~initial:[| 4 |] (problem t) in
  check_int "no gap" r.Sched.Adapt.imposed_static r.Sched.Adapt.free_optimal;
  Alcotest.(check (float 1e-9)) "full" 1. r.Sched.Adapt.recovered

let prop_sandwiched_between_static_and_optimal =
  let arb = Gen.trace_arbitrary ~max_data:6 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make
    ~name:"adaptive cost between free optimum and imposed static" ~count:100
    arb (fun t ->
      let space = Reftrace.Trace.space t in
      let initial = Sched.Baseline.row_wise mesh space in
      let s = Sched.Adapt.schedule ~initial (problem t) in
      let adaptive = adaptive_total ~initial t s in
      let static =
        Sched.Schedule.total_cost
          (Sched.Baseline.schedule initial mesh t)
          t
      in
      let optimal = Sched.Bounds.lower_bound_in (problem t) in
      optimal <= adaptive && adaptive <= static)

let prop_capacity_respected =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make ~name:"adaptive schedules respect capacity" ~count:60 arb
    (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let initial = Sched.Baseline.row_wise mesh (Reftrace.Trace.space t) in
      let s = Sched.Adapt.schedule ~initial (Gen.bounded capacity mesh t) in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let prop_free_gomcds_never_worse =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"free-choice GOMCDS <= adaptive (entry migration charged)"
    ~count:100 arb (fun t ->
      let initial = Sched.Baseline.row_wise mesh (Reftrace.Trace.space t) in
      let adaptive =
        adaptive_total ~initial t (Sched.Adapt.schedule ~initial (problem t))
      in
      Sched.Schedule.total_cost (Sched.Gomcds.schedule (problem t)) t <= adaptive)

let suite =
  [
    Gen.case "stays when already optimal" test_stays_when_already_optimal;
    Gen.case "entry migration weighed" test_entry_migration_weighed;
    Gen.case "validates initial" test_validates_initial;
    Gen.case "rejects faulted session" test_rejects_faulted_session;
    Gen.case "recovery fields consistent" test_recovery_fields_consistent;
    Gen.case "no headroom = full recovery" test_no_headroom_counts_as_full_recovery;
    Gen.to_alcotest prop_sandwiched_between_static_and_optimal;
    Gen.to_alcotest prop_capacity_respected;
    Gen.to_alcotest prop_free_gomcds_never_worse;
  ]
