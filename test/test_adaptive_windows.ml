let mesh = Gen.mesh44
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_uniform_collapses_to_one_window () =
  let t = Workloads.Stencil.trace ~n:8 ~sweeps:6 mesh in
  let events = Oracle.Window_builder.events_of_trace t in
  let adaptive =
    Oracle.Window_builder.adaptive (Reftrace.Trace.space t) events
  in
  check_int "one window" 1 (Reftrace.Trace.n_windows adaptive)

let test_phase_shift_detected () =
  (* two clearly distinct phases: all activity at rank 0, then all at 15 *)
  let space = Reftrace.Data_space.matrix "A" 2 in
  let ev step proc data = Oracle.Trace.event ~step ~proc ~data () in
  let events =
    List.init 10 (fun i -> ev i 0 0)
    @ List.init 10 (fun i -> ev (10 + i) 15 1)
  in
  let t = Oracle.Window_builder.adaptive space events in
  check_int "two phases" 2 (Reftrace.Trace.n_windows t);
  check_int "first phase refs" 10
    (Reftrace.Window.total_references (Reftrace.Trace.window t 0))

let test_threshold_one_never_splits () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let events = Oracle.Window_builder.events_of_trace t in
  let adaptive =
    Oracle.Window_builder.adaptive ~threshold:1.
      (Reftrace.Trace.space t) events
  in
  check_int "single window" 1 (Reftrace.Trace.n_windows adaptive)

let test_threshold_zero_splits_on_any_change () =
  let space = Reftrace.Data_space.matrix "A" 2 in
  let ev step proc data = Oracle.Trace.event ~step ~proc ~data () in
  let events = [ ev 0 0 0; ev 1 1 0; ev 2 1 1 ] in
  let t = Oracle.Window_builder.adaptive ~threshold:0. space events in
  (* step 2 has the same processor histogram as step 1: merged *)
  check_int "splits only on histogram change" 2 (Reftrace.Trace.n_windows t)

let test_preserves_references () =
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let events = Oracle.Window_builder.events_of_trace t in
  let adaptive =
    Oracle.Window_builder.adaptive (Reftrace.Trace.space t) events
  in
  check_int "same total"
    (Reftrace.Trace.total_references t)
    (Reftrace.Trace.total_references adaptive)

let test_validates_threshold () =
  let space = Reftrace.Data_space.matrix "A" 1 in
  let events = [ Oracle.Trace.event ~step:0 ~proc:0 ~data:0 () ] in
  Alcotest.check_raises "threshold > 1"
    (Invalid_argument "Window_builder.adaptive: threshold must be in [0, 1]")
    (fun () ->
      ignore (Oracle.Window_builder.adaptive ~threshold:1.5 space events))

let prop_window_count_bounded_by_extremes =
  (* threshold 0 fragments maximally (a window holds only identical
     consecutive histograms, and identical steps never split at any
     threshold); threshold 1 always yields one window *)
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:6 ~max_count:4 () in
  QCheck.Test.make
    ~name:"adaptive window count lies between the threshold extremes"
    ~count:60 arb (fun t ->
      let events = Oracle.Window_builder.events_of_trace t in
      let space = Reftrace.Trace.space t in
      let count th =
        Reftrace.Trace.n_windows
          (Oracle.Window_builder.adaptive ~threshold:th space events)
      in
      let finest = count 0. in
      List.for_all (fun th -> 1 <= count th && count th <= finest)
        [ 0.1; 0.25; 0.5; 0.9 ]
      && count 1. = 1)

let prop_preserves_counts_random =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:6 ~max_count:4 () in
  QCheck.Test.make ~name:"adaptive rebuild preserves reference counts"
    ~count:60 arb (fun t ->
      let events = Oracle.Window_builder.events_of_trace t in
      let adaptive =
        Oracle.Window_builder.adaptive (Reftrace.Trace.space t) events
      in
      Reftrace.Trace.total_references adaptive
      = Reftrace.Trace.total_references t)

let test_schedulers_accept_adaptive_windows () =
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let events = Oracle.Window_builder.events_of_trace t in
  let adaptive =
    Oracle.Window_builder.adaptive ~threshold:0.15
      (Reftrace.Trace.space t) events
  in
  let cost =
    Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh adaptive)) adaptive
  in
  check_bool "schedulable" true (cost > 0)

let suite =
  [
    Gen.case "uniform collapses" test_uniform_collapses_to_one_window;
    Gen.case "phase shift detected" test_phase_shift_detected;
    Gen.case "threshold 1 never splits" test_threshold_one_never_splits;
    Gen.case "threshold 0 splits on change" test_threshold_zero_splits_on_any_change;
    Gen.case "preserves references" test_preserves_references;
    Gen.case "validates threshold" test_validates_threshold;
    Gen.to_alcotest prop_window_count_bounded_by_extremes;
    Gen.to_alcotest prop_preserves_counts_random;
    Gen.case "schedulers accept adaptive windows" test_schedulers_accept_adaptive_windows;
  ]
