let check_int = Alcotest.(check int)

let space = Reftrace.Data_space.matrix "A" 2
let ev step proc data = Oracle.Trace.event ~step ~proc ~data ()

let events =
  [ ev 0 1 0; ev 0 1 0; ev 0 2 1; ev 5 0 2; ev 9 3 3; ev 9 3 3; ev 9 1 0 ]

let test_per_step () =
  let t = Oracle.Window_builder.per_step space events in
  check_int "three distinct steps" 3 (Reftrace.Trace.n_windows t);
  check_int "window 0 counts" 2
    (Reftrace.Window.references (Reftrace.Trace.window t 0) 0);
  check_int "window 2 datum 3" 2
    (Reftrace.Window.references (Reftrace.Trace.window t 2) 3)

let test_fixed () =
  let t = Oracle.Window_builder.fixed ~steps_per_window:2 space events in
  (* steps {0,5} then {9} *)
  check_int "two windows" 2 (Reftrace.Trace.n_windows t);
  check_int "first window refs" 4
    (Reftrace.Window.total_references (Reftrace.Trace.window t 0))

let test_fixed_one_equals_per_step () =
  let a = Oracle.Window_builder.per_step space events in
  let b = Oracle.Window_builder.fixed ~steps_per_window:1 space events in
  Alcotest.(check bool)
    "identical" true
    (List.for_all2 Reftrace.Window.equal (Reftrace.Trace.windows a)
       (Reftrace.Trace.windows b))

let test_fixed_large_merges_all () =
  let t = Oracle.Window_builder.fixed ~steps_per_window:100 space events in
  check_int "one window" 1 (Reftrace.Trace.n_windows t);
  check_int "all refs" (List.length events)
    (Reftrace.Trace.total_references t)

let test_by_custom_map () =
  let t =
    Oracle.Window_builder.by ~window_of_step:(fun s -> s / 6) space events
  in
  (* steps 0,5 -> window 0; step 9 -> window 1 *)
  check_int "two windows" 2 (Reftrace.Trace.n_windows t)

let test_validation () =
  Alcotest.check_raises "empty events"
    (Invalid_argument "Window_builder: empty event list") (fun () ->
      ignore (Oracle.Window_builder.per_step space []));
  Alcotest.check_raises "bad steps_per_window"
    (Invalid_argument "Window_builder.fixed: steps_per_window must be positive")
    (fun () ->
      ignore (Oracle.Window_builder.fixed ~steps_per_window:0 space events));
  Alcotest.check_raises "negative window index"
    (Invalid_argument "Window_builder: negative window index computed")
    (fun () ->
      ignore
        (Oracle.Window_builder.by ~window_of_step:(fun _ -> -1) space events))

let test_events_roundtrip () =
  let t = Oracle.Window_builder.per_step space events in
  let flattened = Oracle.Window_builder.events_of_trace t in
  let t2 = Oracle.Window_builder.per_step space flattened in
  Alcotest.(check bool)
    "roundtrip" true
    (List.for_all2 Reftrace.Window.equal (Reftrace.Trace.windows t)
       (Reftrace.Trace.windows t2))

let prop_builders_preserve_reference_count =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:6 ~max_count:3 () in
  QCheck.Test.make ~name:"rebuilding preserves reference counts" ~count:50 arb
    (fun t ->
      let events = Oracle.Window_builder.events_of_trace t in
      let rebuilt =
        Oracle.Window_builder.per_step (Reftrace.Trace.space t) events
      in
      Reftrace.Trace.total_references rebuilt
      = Reftrace.Trace.total_references t)

(* The window-granularity ablation coarsens a generated trace by merging
   consecutive windows; on a trace with no empty window that is [fixed]
   over its flattened events. *)
let test_coarsen_equals_fixed () =
  List.iter
    (fun n ->
      let t = Workloads.Lu.trace ~n Gen.mesh44 in
      let events = Oracle.Window_builder.events_of_trace t in
      List.iter
        (fun k ->
          Alcotest.(check string)
            (Printf.sprintf "LU %d, k=%d" n k)
            (Reftrace.Serial.to_string
               (Oracle.Window_builder.fixed ~steps_per_window:k
                  (Reftrace.Trace.space t) events))
            (Reftrace.Serial.to_string (Gen.coarsen k t)))
        [ 1; 2; 3; 4; 7; 8; 15 ])
    [ 8; 16 ]

let suite =
  [
    Gen.case "per_step" test_per_step;
    Gen.case "fixed" test_fixed;
    Gen.case "fixed(1) = per_step" test_fixed_one_equals_per_step;
    Gen.case "fixed(large) merges all" test_fixed_large_merges_all;
    Gen.case "by custom map" test_by_custom_map;
    Gen.case "validation" test_validation;
    Gen.case "events roundtrip" test_events_roundtrip;
    Gen.to_alcotest prop_builders_preserve_reference_count;
    Gen.case "coarsen = fixed" test_coarsen_equals_fixed;
  ]
