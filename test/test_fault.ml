(* Fault model, fault-aware routing/costs and reschedule-on-failure.

   Four pillars:
   - the BFS oracle is pinned to the closed-form mesh geometry on healthy
     arrays and to hand-checked detours on degraded ones, with
     disconnection surfacing as the typed [Fault.Unreachable];
   - simulator-vs-analytic identity on faulty meshes AND tori: the
     measured rerouted cost of every message equals volume times the
     fault-aware BFS distance;
   - zero overhead: every scheduler under [Fault.none] is byte-identical
     to the fault-oblivious path, serial and at jobs = 4, mesh and torus;
   - degradation: dead processors never host data, rescheduling never
     loses to riding out the repaired plan, and the paid cost collapses
     to the analytic cost on healthy runs. *)

let mesh44 = Gen.mesh44
let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fault.t construction and seeded injection                           *)
(* ------------------------------------------------------------------ *)

let test_create_normalizes () =
  let f =
    Pim.Fault.create ~dead_nodes:[ 3; 1; 3 ]
      ~dead_links:[ (5, 4); (4, 5); (1, 2) ]
      ()
  in
  Alcotest.(check (list int)) "nodes sorted, deduped" [ 1; 3 ]
    (Pim.Fault.dead_nodes f);
  Alcotest.(check (list (pair int int)))
    "links canonical (lo, hi), deduped"
    [ (1, 2); (4, 5) ]
    (Pim.Fault.dead_links f);
  check_bool "none is none" true Pim.Fault.(is_none none);
  check_bool "non-empty is not none" false (Pim.Fault.is_none f)

let test_inject_deterministic () =
  let f1 = Pim.Fault.inject ~seed:7 ~node_rate:0.3 ~link_rate:0.2 mesh44 in
  let f2 = Pim.Fault.inject ~seed:7 ~node_rate:0.3 ~link_rate:0.2 mesh44 in
  Alcotest.(check (list int))
    "same seed, same nodes" (Pim.Fault.dead_nodes f1)
    (Pim.Fault.dead_nodes f2);
  Alcotest.(check (list (pair int int)))
    "same seed, same links" (Pim.Fault.dead_links f1)
    (Pim.Fault.dead_links f2)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let prop_inject_monotone =
  QCheck.Test.make ~name:"inject: dead sets grow monotonically with rate"
    ~count:50
    QCheck.(triple small_nat (float_range 0. 1.) (float_range 0. 1.))
    (fun (seed, r1, r2) ->
      let lo = Float.min r1 r2 and hi = Float.max r1 r2 in
      let f_lo = Pim.Fault.inject ~seed ~node_rate:lo ~link_rate:lo mesh44 in
      let f_hi = Pim.Fault.inject ~seed ~node_rate:hi ~link_rate:hi mesh44 in
      subset (Pim.Fault.dead_nodes f_lo) (Pim.Fault.dead_nodes f_hi)
      && subset (Pim.Fault.dead_links f_lo) (Pim.Fault.dead_links f_hi))

let test_inject_never_kills_all () =
  let f = Pim.Fault.inject ~seed:3 ~node_rate:1.0 ~link_rate:0.0 mesh44 in
  check_int "one survivor at rate 1" 1 (Pim.Fault.alive_count f mesh44)

let test_inject_validates_rates () =
  List.iter
    (fun (node_rate, link_rate) ->
      check_bool "bad rate rejected" true
        (try
           ignore (Pim.Fault.inject ~seed:0 ~node_rate ~link_rate mesh44);
           false
         with Invalid_argument _ -> true))
    [ (-0.1, 0.0); (1.5, 0.0); (0.0, -1.0); (0.0, 2.0) ]

let test_validate_rejects_foreign () =
  let bad_node = Pim.Fault.create ~dead_nodes:[ 16 ] () in
  let bad_link = Pim.Fault.create ~dead_links:[ (0, 5) ] () in
  check_bool "rank outside mesh" true
    (try
       Pim.Fault.validate bad_node mesh44;
       false
     with Invalid_argument _ -> true);
  check_bool "non-adjacent link" true
    (try
       Pim.Fault.validate bad_link mesh44;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* BFS oracle: healthy identity, detours, disconnection                *)
(* ------------------------------------------------------------------ *)

let test_oracle_healthy_identity () =
  List.iter
    (fun mesh ->
      let o = Pim.Fault.Paths.create mesh Pim.Fault.none in
      let m = Pim.Mesh.size mesh in
      for src = 0 to m - 1 do
        for dst = 0 to m - 1 do
          check_int "distance = Mesh.distance"
            (Pim.Mesh.distance mesh src dst)
            (Pim.Fault.Paths.distance_exn o ~src ~dst);
          Alcotest.(check (list int))
            "route = xy route"
            (Pim.Mesh.xy_route mesh ~src ~dst)
            (Option.get (Pim.Fault.Paths.route o ~src ~dst))
        done
      done)
    [ mesh44; torus35 ]

let test_oracle_detour () =
  (* 2x2 mesh: ranks 0 1 / 2 3. Killing link 0-1 forces 0 -> 2 -> 3 -> 1. *)
  let mesh = Pim.Mesh.square 2 in
  let f = Pim.Fault.create ~dead_links:[ (0, 1) ] () in
  let o = Pim.Fault.Paths.create mesh f in
  check_int "detour distance" 3 (Pim.Fault.Paths.distance_exn o ~src:0 ~dst:1);
  Alcotest.(check (list int))
    "detour route" [ 0; 2; 3; 1 ]
    (Option.get (Pim.Fault.Paths.route o ~src:0 ~dst:1));
  (* the unaffected pair keeps its healthy geometry *)
  check_int "other pairs untouched" 1
    (Pim.Fault.Paths.distance_exn o ~src:2 ~dst:3)

let isolated_corner_fault = Pim.Fault.create ~dead_links:[ (0, 1); (0, 2) ] ()

let test_oracle_disconnected () =
  (* cutting both of rank 0's links on a 2x2 mesh isolates it *)
  let mesh = Pim.Mesh.square 2 in
  let o = Pim.Fault.Paths.create mesh isolated_corner_fault in
  Alcotest.(check (option int))
    "no path" None
    (Pim.Fault.Paths.distance o ~src:3 ~dst:0);
  Alcotest.check_raises "typed error, not a hang"
    (Pim.Fault.Unreachable (3, 0)) (fun () ->
      ignore (Pim.Fault.Paths.distance_exn o ~src:3 ~dst:0))

let test_simulator_disconnected_is_typed_error () =
  let mesh = Pim.Mesh.square 2 in
  let rounds =
    [
      {
        Pim.Simulator.migrations = [];
        references = [ Pim.Router.message ~src:3 ~dst:0 ~volume:2 ];
      };
    ]
  in
  Alcotest.check_raises "simulator surfaces Unreachable"
    (Pim.Fault.Unreachable (3, 0)) (fun () ->
      ignore (Pim.Simulator.run ~fault:isolated_corner_fault mesh rounds))

(* ------------------------------------------------------------------ *)
(* Simulator-vs-analytic identity on faulty arrays                     *)
(* ------------------------------------------------------------------ *)

(* Connected degradations: a dead node (router survives) plus dead links
   that reroute but never disconnect. *)
let faulty_cases =
  [
    ("mesh", mesh44, Pim.Fault.create ~dead_nodes:[ 10 ] ~dead_links:[ (0, 1); (5, 6) ] ());
    ("torus", torus35, Pim.Fault.create ~dead_nodes:[ 7 ] ~dead_links:[ (0, 1); (0, 5); (11, 12) ] ());
  ]

let analytic_cost mesh fault rounds =
  let o = Pim.Fault.Paths.create mesh fault in
  List.fold_left
    (fun acc { Pim.Simulator.migrations; references } ->
      List.fold_left
        (fun acc { Pim.Router.src; dst; volume } ->
          acc + (volume * Pim.Fault.Paths.distance_exn o ~src ~dst))
        acc
        (migrations @ references))
    0 rounds

let prop_simulator_matches_analytic (label, mesh, fault) =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:6 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("simulator cost = volume · BFS distance, faulty " ^ label)
    ~count:30 arb
    (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
      let rounds = Sched.Schedule.to_rounds schedule trace in
      let report = Pim.Simulator.run ~fault mesh rounds in
      report.Pim.Simulator.total_cost = analytic_cost mesh fault rounds)

(* On those same degraded arrays the scheduler's own analytic total (the
   arena is downgraded to BFS distances) must equal the simulator's
   measured cost: plan and execution agree about the degraded geometry. *)
let prop_problem_cost_matches_simulator (label, mesh, fault) =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:3 ~max_count:3 () in
  QCheck.Test.make
    ~name:("analytic schedule cost = measured cost, faulty " ^ label)
    ~count:20 arb
    (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
      let space = Reftrace.Trace.space trace in
      let analytic = ref 0 in
      for d = 0 to Sched.Schedule.n_data schedule - 1 do
        analytic :=
          !analytic
          + Reftrace.Data_space.volume_of space d
            * Sched.Problem.trajectory_cost problem ~data:d
                (Sched.Schedule.centers_of_data schedule ~data:d)
      done;
      let report =
        Pim.Simulator.run ~fault mesh (Sched.Schedule.to_rounds schedule trace)
      in
      report.Pim.Simulator.total_cost = !analytic)

(* ------------------------------------------------------------------ *)
(* Zero overhead: Fault.none is byte-identical, all schedulers         *)
(* ------------------------------------------------------------------ *)

let all_algorithms =
  Sched.Scheduler.all @ [ Sched.Scheduler.Annealing 123; Sched.Scheduler.Online 0.5 ]

let prop_fault_none_zero_overhead (label, mesh) =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:3 ~max_count:3 () in
  QCheck.Test.make
    ~name:("Fault.none schedules byte-identical, " ^ label)
    ~count:15 arb
    (fun trace ->
      List.for_all
        (fun jobs ->
          let plain = Sched.Problem.create ~jobs mesh trace in
          let with_none =
            Sched.Problem.create ~jobs ~fault:Pim.Fault.none mesh trace
          in
          List.for_all
            (fun algorithm ->
              Sched.Schedule.equal
                (Sched.Scheduler.solve plain algorithm)
                (Sched.Scheduler.solve with_none algorithm))
            all_algorithms)
        [ 1; 4 ])

let test_simulator_fault_none_identical () =
  let trace =
    Gen.trace mesh44 ~n_data:4
      [ [ (0, 3, 2); (1, 7, 1) ]; [ (2, 9, 3); (3, 0, 1); (0, 15, 2) ] ]
  in
  let problem = Sched.Problem.create mesh44 trace in
  let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
  let rounds = Sched.Schedule.to_rounds schedule trace in
  let plain = Pim.Simulator.run mesh44 rounds in
  let with_none = Pim.Simulator.run ~fault:Pim.Fault.none mesh44 rounds in
  check_int "same measured total" plain.Pim.Simulator.total_cost
    with_none.Pim.Simulator.total_cost;
  check_int "same message count"
    (List.length plain.Pim.Simulator.rounds)
    (List.length with_none.Pim.Simulator.rounds)

(* ------------------------------------------------------------------ *)
(* Dead processors never host data                                     *)
(* ------------------------------------------------------------------ *)

(* The paper algorithms and their refinements; static baselines are
   fault-oblivious by design (fixed decompositions), and Annealing only
   guarantees it never *moves* data onto a dead rank. *)
let center_choosing =
  Sched.Scheduler.
    [ Scds; Lomcds; Gomcds; Lomcds_grouped; Gomcds_grouped; Gomcds_refined; Best_refined ]

let prop_dead_nodes_excluded =
  let arb = Gen.trace_arbitrary ~mesh:mesh44 ~max_data:5 ~max_windows:3 ~max_count:3 () in
  QCheck.Test.make ~name:"no schedule places data on a dead rank" ~count:20
    arb
    (fun trace ->
      let fault = Pim.Fault.create ~dead_nodes:[ 0; 6; 11 ] () in
      let problem = Sched.Problem.create ~fault mesh44 trace in
      List.for_all
        (fun algorithm ->
          let s = Sched.Scheduler.solve problem algorithm in
          let ok = ref true in
          for w = 0 to Sched.Schedule.n_windows s - 1 do
            for d = 0 to Sched.Schedule.n_data s - 1 do
              if not (Sched.Problem.rank_alive problem (Sched.Schedule.center s ~window:w ~data:d))
              then ok := false
            done
          done;
          !ok)
        center_choosing)

let test_candidates_exclude_dead () =
  let trace = Gen.trace mesh44 ~n_data:1 [ [ (0, 6, 4); (0, 5, 1) ] ] in
  let fault = Pim.Fault.create ~dead_nodes:[ 6 ] () in
  let problem = Sched.Problem.create ~fault mesh44 trace in
  check_bool "optimal center alive" true
    (Sched.Problem.rank_alive problem
       (Sched.Problem.optimal_center problem ~window:0 ~data:0));
  let list =
    Oracle.Candidates.candidates
      (Oracle.Candidates.of_problem problem)
      ~window:0 ~data:0
  in
  check_bool "candidate list alive" true
    (List.for_all (Sched.Problem.rank_alive problem) list);
  (* the dead rank is banned in the session's memory, so the head with
     room skips it exactly as the alive-filtered list does *)
  Alcotest.(check (option int))
    "head with room = first of the alive list" (Some (List.hd list))
    (Sched.Processor_list.choose
       (Sched.Problem.fresh_memory problem)
       (Sched.Problem.row problem ~window:0 ~data:0));
  check_bool "killing every rank is rejected" true
    (try
       ignore
         (Sched.Problem.create
            ~fault:(Pim.Fault.create ~dead_nodes:(List.init 16 Fun.id) ())
            mesh44 trace);
       false
     with Invalid_argument _ -> true)

let test_link_fault_downgrades_distance () =
  let trace = Gen.trace mesh44 ~n_data:2 [ [ (0, 1, 2); (1, 14, 1) ] ] in
  let fault = Pim.Fault.create ~dead_links:[ (0, 1) ] () in
  let problem = Sched.Problem.create ~fault mesh44 trace in
  let o = Pim.Fault.Paths.create mesh44 fault in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      check_int "Problem.distance = BFS distance"
        (Pim.Fault.Paths.distance_exn o ~src ~dst)
        (Sched.Problem.distance problem src dst)
    done
  done

(* ------------------------------------------------------------------ *)
(* Reschedule-on-failure                                               *)
(* ------------------------------------------------------------------ *)

let test_resilience_healthy_identity () =
  let trace =
    Gen.trace mesh44 ~n_data:4
      [ [ (0, 3, 2); (1, 7, 1) ]; [ (2, 9, 3); (0, 12, 2) ]; [ (3, 1, 1) ] ]
  in
  let problem = Sched.Problem.create mesh44 trace in
  let r = Sched.Resilience.run problem Sched.Scheduler.Gomcds in
  check_int "paid = planned on a healthy run" r.Sched.Resilience.planned_cost
    r.Sched.Resilience.paid_cost;
  check_int "nothing evicted" 0 r.Sched.Resilience.evicted;
  check_int "nothing undeliverable" 0 r.Sched.Resilience.undeliverable

let prop_reschedule_never_loses =
  let arb = Gen.trace_arbitrary ~mesh:mesh44 ~max_data:6 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:"rescheduling never loses to riding out the repaired plan"
    ~count:25
    QCheck.(pair arb (int_range 0 1000))
    (fun (trace, seed) ->
      let problem = Sched.Problem.create mesh44 trace in
      let fault =
        Pim.Fault.inject ~seed ~node_rate:0.25 ~link_rate:0.1 mesh44
      in
      let window = Reftrace.Trace.n_windows trace / 2 in
      let events = [ { Sched.Resilience.window; fault } ] in
      let re =
        Sched.Resilience.run ~reschedule:true ~events problem
          Sched.Scheduler.Gomcds
      in
      let keep =
        Sched.Resilience.run ~reschedule:false ~events problem
          Sched.Scheduler.Gomcds
      in
      (* "Never loses" is a theorem about the merge's pricing metric,
         which charges unreachable traffic [Problem.unreachable_cost];
         [paid_cost] charges undeliverable messages nothing, and a
         stranded datum stays put in execution while pricing assumes it
         moved. When neither run strands anything the two walks coincide
         and the executed costs inherit the per-datum merge guarantee;
         when traffic is stranded the paid costs are not comparable (a
         re-solve that delivers strictly more pays for those extra
         deliveries), so only the shared plan is asserted. *)
      re.Sched.Resilience.planned_cost = keep.Sched.Resilience.planned_cost
      && (re.Sched.Resilience.undeliverable > 0
         || keep.Sched.Resilience.undeliverable > 0
         || re.Sched.Resilience.paid_cost <= keep.Sched.Resilience.paid_cost))

let test_resilience_eviction_charged () =
  (* datum 0 lives at its sole referencer, rank 5; killing 5 after window
     0 must evict it and pay for the move *)
  let trace =
    Gen.trace mesh44 ~n_data:1 [ [ (0, 5, 3) ]; [ (0, 5, 2) ] ]
  in
  let problem = Sched.Problem.create mesh44 trace in
  let events =
    [ { Sched.Resilience.window = 1; fault = Pim.Fault.create ~dead_nodes:[ 5 ] () } ]
  in
  let r = Sched.Resilience.run ~events problem Sched.Scheduler.Gomcds in
  check_int "one eviction" 1 r.Sched.Resilience.evicted;
  check_bool "eviction cost charged" true (r.Sched.Resilience.evicted_cost > 0);
  check_bool "failure costs something" true
    (r.Sched.Resilience.paid_cost > r.Sched.Resilience.planned_cost);
  check_bool "window-1 references remapped" true
    (r.Sched.Resilience.remapped_refs > 0)

let test_resilience_validates_events () =
  let trace = Gen.trace mesh44 ~n_data:1 [ [ (0, 0, 1) ] ] in
  let problem = Sched.Problem.create mesh44 trace in
  check_bool "out-of-range window rejected" true
    (try
       ignore
         (Sched.Resilience.run
            ~events:[ { Sched.Resilience.window = 9; fault = Pim.Fault.none } ]
            problem Sched.Scheduler.Gomcds);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fault-aware Link_stats                                              *)
(* ------------------------------------------------------------------ *)

let test_link_stats_rejects_dead_link () =
  let fault = Pim.Fault.create ~dead_links:[ (0, 1) ] () in
  let stats = Pim.Link_stats.create ~fault mesh44 in
  Alcotest.check_raises "dead link refuses traffic"
    (Invalid_argument "Link_stats.record: link 0 -> 1 is dead") (fun () ->
      Pim.Link_stats.record stats ~src:0 ~dst:1 ~volume:1);
  (* healthy links still record *)
  Pim.Link_stats.record stats ~src:1 ~dst:2 ~volume:3

let suite =
  [
    Gen.case "create normalizes" test_create_normalizes;
    Gen.case "inject is deterministic" test_inject_deterministic;
    Gen.to_alcotest prop_inject_monotone;
    Gen.case "inject never kills all" test_inject_never_kills_all;
    Gen.case "inject validates rates" test_inject_validates_rates;
    Gen.case "validate rejects foreign faults" test_validate_rejects_foreign;
    Gen.case "oracle healthy identity" test_oracle_healthy_identity;
    Gen.case "oracle detours around dead links" test_oracle_detour;
    Gen.case "oracle reports disconnection" test_oracle_disconnected;
    Gen.case "simulator raises typed Unreachable"
      test_simulator_disconnected_is_typed_error;
    Gen.to_alcotest (prop_simulator_matches_analytic (List.nth faulty_cases 0));
    Gen.to_alcotest (prop_simulator_matches_analytic (List.nth faulty_cases 1));
    Gen.to_alcotest
      (prop_problem_cost_matches_simulator (List.nth faulty_cases 0));
    Gen.to_alcotest
      (prop_problem_cost_matches_simulator (List.nth faulty_cases 1));
    Gen.to_alcotest (prop_fault_none_zero_overhead ("mesh", mesh44));
    Gen.to_alcotest (prop_fault_none_zero_overhead ("torus", torus35));
    Gen.case "simulator Fault.none identical" test_simulator_fault_none_identical;
    Gen.to_alcotest prop_dead_nodes_excluded;
    Gen.case "candidates exclude dead ranks" test_candidates_exclude_dead;
    Gen.case "link faults downgrade distances" test_link_fault_downgrades_distance;
    Gen.case "resilience healthy identity" test_resilience_healthy_identity;
    Gen.to_alcotest prop_reschedule_never_loses;
    Gen.case "eviction is charged" test_resilience_eviction_charged;
    Gen.case "resilience validates events" test_resilience_validates_events;
    Gen.case "link stats reject dead links" test_link_stats_rejects_dead_link;
  ]
