(* Heterogeneous element volumes: the paper's cost model weights every hop
   by "the data volume transferred". *)

let mesh = Gen.mesh44
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let weighted_trace ~volume specs =
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc ~volume "A" ~rows:1 ~cols:4)
      []
  in
  Reftrace.Trace.create space (List.map (Gen.window ~n_data:4) specs)

let test_descriptor_validation () =
  Alcotest.check_raises "zero volume"
    (Invalid_argument "Data_space.array_desc: volume must be positive (0)")
    (fun () ->
      ignore (Reftrace.Data_space.array_desc ~volume:0 "A" ~rows:1 ~cols:1))

let test_volume_accessors () =
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc ~volume:3 "A" ~rows:2 ~cols:2)
      [ Reftrace.Data_space.array_desc "B" ~rows:1 ~cols:2 ]
  in
  check_int "A element" 3 (Reftrace.Data_space.volume_of space 0);
  check_int "B element" 1 (Reftrace.Data_space.volume_of space 4);
  check_int "total" ((4 * 3) + 2) (Reftrace.Data_space.total_volume space)

let test_cost_scales_linearly () =
  let specs = [ [ (0, 5, 2); (1, 0, 1) ]; [ (0, 9, 3) ] ] in
  let unit = weighted_trace ~volume:1 specs in
  let heavy = weighted_trace ~volume:5 specs in
  List.iter
    (fun algo ->
      let cost t =
        Sched.Schedule.total_cost
          (Sched.Scheduler.solve (Sched.Problem.create mesh t) algo)
          t
      in
      check_int
        (Sched.Scheduler.name algo ^ " scales by 5")
        (5 * cost unit) (cost heavy))
    Sched.Scheduler.[ Row_wise; Scds; Lomcds; Gomcds ]

let test_mixed_volumes_weighted_correctly () =
  (* A (volume 4) and B (volume 1), each referenced once at distance 2 from
     a pinned placement *)
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc ~volume:4 "A" ~rows:1 ~cols:1)
      [ Reftrace.Data_space.array_desc "B" ~rows:1 ~cols:1 ]
  in
  let w = Reftrace.Window.create ~n_data:2 in
  Reftrace.Window.add w ~data:0 ~proc:2 ~count:1;
  Reftrace.Window.add w ~data:1 ~proc:2 ~count:1;
  let t = Reftrace.Trace.create space [ w ] in
  let s = Sched.Schedule.constant mesh ~n_windows:1 [| 0; 0 |] in
  (* dist(0, 2) = 2: A costs 8, B costs 2 *)
  check_int "weighted total" 10 (Sched.Schedule.total_cost s t)

let test_movement_weighted () =
  let t = weighted_trace ~volume:3 [ [ (0, 0, 9) ]; [ (0, 15, 9) ] ] in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let b = Sched.Schedule.cost s t in
  (* corner-to-corner migration of a volume-3 datum: 6 hops * 3 *)
  check_int "movement" 18 b.Sched.Schedule.movement

let test_simulator_identity_with_volumes () =
  let t = weighted_trace ~volume:7 [ [ (0, 5, 2); (2, 1, 1) ]; [ (0, 12, 3) ] ] in
  List.iter
    (fun algo ->
      let s = Sched.Scheduler.solve (Sched.Problem.create mesh t) algo in
      let report = Pim.Simulator.run mesh (Sched.Schedule.to_rounds s t) in
      check_int
        (Sched.Scheduler.name algo ^ " measured = analytic")
        (Sched.Schedule.total_cost s t)
        report.Pim.Simulator.total_cost)
    Sched.Scheduler.[ Row_wise; Scds; Lomcds; Gomcds; Lomcds_grouped ]

let test_serial_roundtrip_preserves_volume () =
  let t = weighted_trace ~volume:6 [ [ (0, 1, 2) ] ] in
  let s = Reftrace.Serial.to_string t in
  check_bool "volume in format" true
    (List.mem "array A 1 4 6" (String.split_on_char '\n' s));
  let t' = Reftrace.Serial.of_string s in
  check_int "volume restored" 6
    (Reftrace.Data_space.volume_of (Reftrace.Trace.space t') 0);
  (* unit volumes keep the legacy format *)
  let u = weighted_trace ~volume:1 [ [ (0, 1, 2) ] ] in
  check_bool "legacy line" true
    (List.mem "array A 1 4"
       (String.split_on_char '\n' (Reftrace.Serial.to_string u)))

let test_concat_volume_mismatch_rejected () =
  let a =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc ~volume:2 "A" ~rows:1 ~cols:1)
      []
  in
  let b = Reftrace.Data_space.matrix "A" 1 in
  check_bool "raises" true
    (try
       ignore (Reftrace.Data_space.concat a b);
       false
     with Invalid_argument _ -> true)

let test_heavy_data_win_contended_slots () =
  (* two data want rank 5 under capacity 1; the volume-heavy one (fewer raw
     references but more volume-weighted traffic) must get it *)
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc ~volume:10 "H" ~rows:1 ~cols:1)
      [ Reftrace.Data_space.array_desc "L" ~rows:1 ~cols:1 ]
  in
  let w = Reftrace.Window.create ~n_data:2 in
  Reftrace.Window.add w ~data:0 ~proc:5 ~count:2;
  (* heavy: 2 refs x vol 10 *)
  Reftrace.Window.add w ~data:1 ~proc:5 ~count:5;
  (* light: 5 refs x vol 1 *)
  let t = Reftrace.Trace.create space [ w ] in
  let s = Sched.Scds.schedule (Gen.bounded 1 mesh t) in
  check_int "heavy datum keeps the hot slot" 5
    (Sched.Schedule.center s ~window:0 ~data:0)

let test_bounds_weighted () =
  let t = weighted_trace ~volume:4 [ [ (0, 0, 1) ]; [ (0, 15, 1) ] ] in
  let unit = weighted_trace ~volume:1 [ [ (0, 0, 1) ]; [ (0, 15, 1) ] ] in
  check_int "bound scales" (4 * Sched.Bounds.lower_bound_in (Sched.Problem.create mesh unit))
    (Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t))

let prop_scaling_preserves_decisions =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"uniform volume scaling leaves unconstrained schedules unchanged"
    ~count:50 arb (fun t ->
      (* rebuild the same reference pattern with volume 3 *)
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let space =
        Reftrace.Data_space.create
          (Reftrace.Data_space.array_desc ~volume:3 "A" ~rows:1 ~cols:n)
          []
      in
      let windows =
        List.map
          (fun w ->
            let c = Reftrace.Window.create ~n_data:n in
            List.iter
              (fun d ->
                List.iter
                  (fun (proc, count) ->
                    Reftrace.Window.add c ~data:d ~proc ~count)
                  (Reftrace.Window.profile w d))
              (Reftrace.Window.referenced_data w);
            c)
          (Reftrace.Trace.windows t)
      in
      let heavy = Reftrace.Trace.create space windows in
      let a = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
      let b = Sched.Gomcds.schedule (Sched.Problem.create mesh heavy) in
      Sched.Schedule.equal a b
      && Sched.Schedule.total_cost b heavy
         = 3 * Sched.Schedule.total_cost a t)

let suite =
  [
    Gen.case "descriptor validation" test_descriptor_validation;
    Gen.case "volume accessors" test_volume_accessors;
    Gen.case "cost scales linearly" test_cost_scales_linearly;
    Gen.case "mixed volumes weighted" test_mixed_volumes_weighted_correctly;
    Gen.case "movement weighted" test_movement_weighted;
    Gen.case "simulator identity with volumes" test_simulator_identity_with_volumes;
    Gen.case "serial roundtrip preserves volume" test_serial_roundtrip_preserves_volume;
    Gen.case "concat volume mismatch" test_concat_volume_mismatch_rejected;
    Gen.case "heavy data win contended slots" test_heavy_data_win_contended_slots;
    Gen.case "bounds weighted" test_bounds_weighted;
    Gen.to_alcotest prop_scaling_preserves_decisions;
  ]
