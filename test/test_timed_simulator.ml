let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mesh = Gen.mesh44
let msg = Pim.Router.message

let makespan msgs = Pim.Timed_simulator.round_makespan mesh msgs

let test_empty_round () =
  check_int "no packets" 0 (makespan []);
  check_int "local only" 0 (makespan [ msg ~src:3 ~dst:3 ~volume:5 ])

let test_single_message_store_and_forward () =
  (* volume v over d hops: v cycles per hop *)
  check_int "1 hop, v=1" 1 (makespan [ msg ~src:0 ~dst:1 ~volume:1 ]);
  check_int "1 hop, v=4" 4 (makespan [ msg ~src:0 ~dst:1 ~volume:4 ]);
  check_int "6 hops, v=1" 6 (makespan [ msg ~src:0 ~dst:15 ~volume:1 ]);
  check_int "6 hops, v=3" 18 (makespan [ msg ~src:0 ~dst:15 ~volume:3 ])

let test_contention_serializes () =
  (* two packets over the same single link *)
  check_int "serialized" 5
    (makespan [ msg ~src:0 ~dst:1 ~volume:2; msg ~src:0 ~dst:1 ~volume:3 ])

let test_disjoint_messages_parallel () =
  (* opposite corners, non-overlapping routes *)
  let a = msg ~src:0 ~dst:1 ~volume:4 in
  let b = msg ~src:15 ~dst:14 ~volume:2 in
  check_int "parallel" 4 (makespan [ a; b ])

let test_fifo_determinism () =
  let msgs =
    [ msg ~src:0 ~dst:2 ~volume:1; msg ~src:1 ~dst:3 ~volume:1 ]
  in
  check_int "stable result" (makespan msgs) (makespan msgs)

(* The hash-set rewrite of the active-link bookkeeping must not perturb
   grant order: two runs of a contended batch agree on the entire report
   (every stat, including the floats), not just the makespan. *)
let test_repeat_run_reports_identical () =
  let rounds =
    [
      {
        Pim.Simulator.migrations = [ msg ~src:0 ~dst:15 ~volume:3 ];
        references =
          [
            msg ~src:5 ~dst:6 ~volume:2;
            msg ~src:1 ~dst:13 ~volume:1;
            msg ~src:12 ~dst:3 ~volume:2;
            msg ~src:2 ~dst:14 ~volume:1;
          ];
      };
      {
        Pim.Simulator.migrations = [];
        references = [ msg ~src:4 ~dst:7 ~volume:2; msg ~src:7 ~dst:4 ~volume:2 ];
      };
    ]
  in
  let model = Pim.Link_model.create ~bandwidth:2 ~queue_depth:1 () in
  check_bool "degenerate reports identical" true
    (Pim.Timed_simulator.run mesh rounds = Pim.Timed_simulator.run mesh rounds);
  check_bool "bounded-queue reports identical" true
    (Pim.Timed_simulator.run ~model mesh rounds
    = Pim.Timed_simulator.run ~model mesh rounds)

(* The legacy utilization field divides volume-hops by links ever active
   times the makespan (documented in the .mli): a lone single-hop message
   scores exactly 1.0, and a lone h-hop message scores 1/h because every
   link of the route is charged for the full makespan. The honest
   per-cycle figure, link_utilization, is 1.0 for any lone message. *)
let test_utilization_definition () =
  let check_util = Alcotest.(check (float 1e-12)) in
  let single_hop = Pim.Timed_simulator.round_stats mesh [ msg ~src:0 ~dst:1 ~volume:3 ] in
  check_util "single message, single hop: utilization = 1.0" 1.0
    single_hop.Pim.Timed_simulator.utilization;
  check_util "lone single-hop message: link_utilization = 1.0" 1.0
    single_hop.Pim.Timed_simulator.link_utilization;
  let six_hops = Pim.Timed_simulator.round_stats mesh [ msg ~src:0 ~dst:15 ~volume:3 ] in
  check_util "lone 6-hop message: legacy utilization = 1/6" (1. /. 6.)
    six_hops.Pim.Timed_simulator.utilization;
  check_util "lone 6-hop message: link_utilization = 1.0" 1.0
    six_hops.Pim.Timed_simulator.link_utilization

let test_pipeline_overlap () =
  (* two unit packets over the same 2-hop route: the second starts on link 1
     while the first is on link 2 -> 3 cycles, not 4 *)
  let msgs = [ msg ~src:0 ~dst:2 ~volume:1; msg ~src:0 ~dst:2 ~volume:1 ] in
  check_int "pipelined" 3 (makespan msgs)

let test_run_aggregates_rounds () =
  let r1 =
    { Pim.Simulator.migrations = []; references = [ msg ~src:0 ~dst:1 ~volume:2 ] }
  in
  let r2 =
    { Pim.Simulator.migrations = [ msg ~src:1 ~dst:0 ~volume:1 ]; references = [] }
  in
  let report = Pim.Timed_simulator.run mesh [ r1; r2 ] in
  check_int "total cycles" 3 report.Pim.Timed_simulator.total_cycles;
  check_int "volume hops" 3 report.Pim.Timed_simulator.total_volume_hops;
  match report.Pim.Timed_simulator.rounds with
  | [ a; b ] ->
      check_int "round 0" 2 a.Pim.Timed_simulator.cycles;
      check_int "round 1" 1 b.Pim.Timed_simulator.cycles;
      check_bool "utilization positive" true
        (a.Pim.Timed_simulator.utilization > 0.)
  | _ -> Alcotest.fail "two rounds expected"

let test_volume_hops_match_analytic () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let rounds = Sched.Schedule.to_rounds s t in
  let timed = Pim.Timed_simulator.run mesh rounds in
  check_int "analytic cost recovered"
    (Sched.Schedule.total_cost s t)
    timed.Pim.Timed_simulator.total_volume_hops

let random_messages_arbitrary =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 1 12)
      (triple (int_bound 15) (int_bound 15) (int_range 1 4))
    >>= fun specs ->
    return
      (List.map (fun (src, dst, volume) -> msg ~src ~dst ~volume) specs)
  in
  QCheck.make
    ~print:(fun msgs ->
      String.concat "; "
        (List.map (Format.asprintf "%a" Pim.Router.pp_message) msgs))
    gen

let prop_makespan_respects_lower_bounds =
  QCheck.Test.make ~name:"makespan >= max(volume*hops) and max link load"
    ~count:100 random_messages_arbitrary (fun msgs ->
      let span = makespan msgs in
      let live =
        List.filter
          (fun (m : Pim.Router.message) -> m.src <> m.dst && m.volume > 0)
          msgs
      in
      let message_bound =
        List.fold_left
          (fun acc (m : Pim.Router.message) ->
            max acc (m.volume * Pim.Mesh.distance mesh m.src m.dst))
          0 live
      in
      let stats = Pim.Link_stats.create mesh in
      ignore (Pim.Router.route_all mesh stats msgs);
      let link_bound =
        match Pim.Link_stats.max_link stats with
        | Some (_, _, v) -> v
        | None -> 0
      in
      span >= message_bound && span >= link_bound)

let prop_makespan_at_most_serialized =
  QCheck.Test.make ~name:"makespan <= fully serialized execution" ~count:100
    random_messages_arbitrary (fun msgs ->
      let span = makespan msgs in
      let serial =
        List.fold_left
          (fun acc (m : Pim.Router.message) ->
            acc + (m.volume * Pim.Mesh.distance mesh m.src m.dst))
          0 msgs
      in
      span <= serial || (span = 0 && serial = 0))

let test_schedules_cut_makespan () =
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let cycles algo =
    let s = Sched.Scheduler.solve (Sched.Problem.create mesh t) algo in
    (Pim.Timed_simulator.run mesh (Sched.Schedule.to_rounds s t))
      .Pim.Timed_simulator.total_cycles
  in
  check_bool "gomcds faster than row-wise under contention" true
    (cycles Sched.Scheduler.Gomcds < cycles Sched.Scheduler.Row_wise)

let suite =
  [
    Gen.case "empty round" test_empty_round;
    Gen.case "store and forward" test_single_message_store_and_forward;
    Gen.case "contention serializes" test_contention_serializes;
    Gen.case "disjoint parallel" test_disjoint_messages_parallel;
    Gen.case "fifo determinism" test_fifo_determinism;
    Gen.case "repeat-run reports identical" test_repeat_run_reports_identical;
    Gen.case "utilization definition" test_utilization_definition;
    Gen.case "pipeline overlap" test_pipeline_overlap;
    Gen.case "run aggregates rounds" test_run_aggregates_rounds;
    Gen.case "volume-hops match analytic" test_volume_hops_match_analytic;
    Gen.to_alcotest prop_makespan_respects_lower_bounds;
    Gen.to_alcotest prop_makespan_at_most_serialized;
    Gen.case "schedules cut makespan" test_schedules_cut_makespan;
  ]
