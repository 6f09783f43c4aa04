(* Differential test-bed for the parameterized cycle-honest backend.

   Four pillars:
   - the degenerate Link_model (bandwidth 1, store-and-forward, unbounded
     queues, free compute) is pinned byte-identical to the retained
     pre-model engine (Oracle.Timed_reference) — field by field,
     including the legacy utilization float — across every scheduler,
     both topologies, and healthy and faulty arrays;
   - QCheck invariants over random models and traffic: flit conservation,
     cycles >= ceil(load/bw) of the most loaded link and >= the longest
     single-packet serialized path, monotonicity in bandwidth and queue
     depth on shared routes, and energy additivity across rounds;
   - closed-form oracles: a lone message and 1-3 contending messages on a
     shared route are exactly the permutation flow-shop recurrence
     C(j,i) = max(C(j-1,i), C(j,i-1)) + ceil(v_j/bw) over their
     fragments, plus hand-checked crossing-traffic pins on tiny meshes;
   - backpressure under faults: detoured routes squeezed through a
     bottleneck link with depth-1 queues stall but never deadlock (the
     watchdog Deadlock exception must not fire). *)

module T = Pim.Timed_simulator
module LM = Pim.Link_model
module R = Oracle.Timed_reference

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.))
let mesh44 = Gen.mesh44
let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5
let msg = Pim.Router.message

(* Connected degradations, same shapes as test_fault's faulty_cases. *)
let fault_mesh =
  Pim.Fault.create ~dead_nodes:[ 10 ] ~dead_links:[ (0, 1); (5, 6) ] ()

let fault_torus =
  Pim.Fault.create ~dead_nodes:[ 7 ] ~dead_links:[ (0, 1); (0, 5); (11, 12) ] ()

let topo_cases =
  [
    ("mesh", mesh44, Pim.Fault.none);
    ("mesh faulty", mesh44, fault_mesh);
    ("torus", torus35, Pim.Fault.none);
    ("torus faulty", torus35, fault_torus);
  ]

(* ------------------------------------------------------------------ *)
(* Differential: degenerate model byte-identical to Reference          *)
(* ------------------------------------------------------------------ *)

let matches_reference ?fault mesh rounds =
  let n = T.run ?fault ~model:LM.degenerate mesh rounds in
  let o = R.run ?fault mesh rounds in
  n.T.total_cycles = o.R.total_cycles
  && n.T.total_volume_hops = o.R.total_volume_hops
  && List.length n.T.rounds = List.length o.R.rounds
  && List.for_all2
       (fun (nr : T.round_report) (orr : R.round_report) ->
         nr.round = orr.round && nr.cycles = orr.cycles
         && nr.messages = orr.messages
         && nr.volume_hops = orr.volume_hops
         (* byte-identical float: same formula over identical ints *)
         && Float.equal nr.utilization orr.utilization
         (* degenerate config: one flit per message, no backpressure *)
         && nr.flits = nr.messages
         && nr.queue_stall_cycles = 0
         && nr.compute_idle = 0)
       n.T.rounds o.R.rounds

(* A fixed multi-window trace that fits both topologies (ranks <= 14). *)
let fixed_trace mesh =
  Gen.trace mesh ~n_data:6
    [
      [ (0, 1, 2); (1, 5, 1); (2, 9, 3); (3, 12, 1); (0, 14, 2) ];
      [ (1, 3, 1); (4, 8, 2); (2, 2, 1); (5, 13, 2) ];
      [ (0, 0, 2); (3, 7, 1); (1, 11, 1); (4, 14, 3) ];
    ]

(* (label, fault, session, schedulers): every scheduler on the fixed
   trace per topology and fault, plus gomcds on LU 16 over 16x16 under
   the paper's 2x rule, the at-scale instance the bench pins its timed
   work on. *)
let differential_inputs =
  List.map
    (fun (label, mesh, fault) ->
      ( label,
        fault,
        Sched.Problem.create ~fault mesh (fixed_trace mesh),
        Sched.Scheduler.all ))
    topo_cases
  @
  let mesh = Pim.Mesh.square 16 in
  let trace = Workloads.Lu.trace ~n:16 mesh in
  let policy =
    Sched.Problem.headroom_policy ~headroom:2 ~processors:(Pim.Mesh.size mesh)
      trace
  in
  [
    ( "LU 16 on 16x16",
      Pim.Fault.none,
      Sched.Problem.create ~policy mesh trace,
      [ Sched.Scheduler.Gomcds ] );
  ]

let test_differential_every_scheduler () =
  List.iter
    (fun (label, fault, problem, algos) ->
      let mesh = Sched.Problem.mesh problem in
      let trace = Sched.Problem.trace problem in
      List.iter
        (fun algo ->
          let schedule = Sched.Scheduler.solve problem algo in
          let rounds = Sched.Schedule.to_rounds schedule trace in
          check_bool
            (Printf.sprintf "degenerate = reference: %s, %s" label
               (Sched.Scheduler.name algo))
            true
            (matches_reference ~fault mesh rounds))
        algos)
    differential_inputs

let prop_differential_random_traces (label, mesh, fault) =
  let arb =
    Gen.trace_arbitrary ~mesh ~max_data:6 ~max_windows:4 ~max_count:3 ()
  in
  QCheck.Test.make
    ~name:("degenerate model = reference engine, random traces, " ^ label)
    ~count:20 arb
    (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
      let rounds = Sched.Schedule.to_rounds schedule trace in
      matches_reference ~fault mesh rounds)

let random_messages_arbitrary =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 1 12)
      (triple (int_bound 15) (int_bound 15) (int_range 1 4))
    >>= fun specs ->
    return (List.map (fun (src, dst, volume) -> msg ~src ~dst ~volume) specs)
  in
  QCheck.make
    ~print:(fun msgs ->
      String.concat "; "
        (List.map (Format.asprintf "%a" Pim.Router.pp_message) msgs))
    gen

let prop_differential_raw_batches =
  QCheck.Test.make
    ~name:"degenerate round_makespan = reference, raw message batches"
    ~count:100 random_messages_arbitrary (fun msgs ->
      T.round_makespan ~model:LM.degenerate mesh44 msgs
      = R.round_makespan mesh44 msgs)

(* ------------------------------------------------------------------ *)
(* Link_model generators and pure invariants                           *)
(* ------------------------------------------------------------------ *)

let model_gen ?queue_depth () =
  let open QCheck.Gen in
  int_range 1 4 >>= fun bandwidth ->
  int_range 1 4 >>= fun flit ->
  bool >>= fun wormhole ->
  (match queue_depth with
  | Some _ -> return queue_depth
  | None -> oneof [ return None; int_range 1 4 >>= fun d -> return (Some d) ])
  >>= fun queue_depth ->
  int_range 0 2 >>= fun compute_cycles ->
  return
    (LM.create ~bandwidth ~flit ~wormhole ?queue_depth ~compute_cycles ())

let model_print = Format.asprintf "%a" LM.pp
let model_arbitrary ?queue_depth () = QCheck.make ~print:model_print (model_gen ?queue_depth ())

let prop_flit_conservation =
  QCheck.Test.make ~name:"fragments: conserve volume, sized within flit"
    ~count:200
    QCheck.(pair (model_arbitrary ()) (int_bound 40))
    (fun (model, volume) ->
      let frags = LM.fragments model ~volume in
      List.fold_left ( + ) 0 frags = volume
      && List.for_all
           (fun f -> f >= 1 && f <= max model.LM.flit volume)
           frags
      && ((not model.LM.wormhole) || volume = 0
         || List.for_all (fun f -> f <= model.LM.flit) frags))

(* ------------------------------------------------------------------ *)
(* Flow-shop oracle                                                    *)
(* ------------------------------------------------------------------ *)

(* Permutation flow-shop makespan: fragments (jobs) cross [hops] links
   (machines) in FIFO order, job j holding every machine for [times_j]
   cycles: C(j,i) = max(C(j-1,i), C(j,i-1)) + times_j. Exact for any
   number of messages sharing one route with unbounded queues, because
   fragments cannot overtake. *)
let flow_shop ~hops times =
  let c = Array.make (hops + 1) 0 in
  List.iter
    (fun p ->
      for i = 1 to hops do
        c.(i) <- max c.(i) c.(i - 1) + p
      done)
    times;
  c.(hops)

let fragment_times model volume =
  List.map (LM.hop_cycles model) (LM.fragments model ~volume)

(* Single-packet serialized path: what a message would take alone. *)
let alone_cycles model mesh (m : Pim.Router.message) =
  flow_shop
    ~hops:(Pim.Mesh.distance mesh m.src m.dst)
    (fragment_times model m.volume)

let live_of msgs =
  List.filter
    (fun (m : Pim.Router.message) -> m.src <> m.dst && m.volume > 0)
    msgs

(* ------------------------------------------------------------------ *)
(* QCheck invariants over random models and traffic                    *)
(* ------------------------------------------------------------------ *)

let model_and_messages = QCheck.pair (model_arbitrary ()) random_messages_arbitrary

let prop_volume_hops_invariant =
  QCheck.Test.make
    ~name:"volume_hops = analytic cost and flits = fragment count, any model"
    ~count:100 model_and_messages (fun (model, msgs) ->
      let r = T.round_stats ~model mesh44 msgs in
      let live = live_of msgs in
      r.T.volume_hops
      = List.fold_left
          (fun acc (m : Pim.Router.message) ->
            acc + (m.volume * Pim.Mesh.distance mesh44 m.src m.dst))
          0 live
      && r.T.flits
         = List.fold_left
             (fun acc (m : Pim.Router.message) ->
               acc + List.length (LM.fragments model ~volume:m.volume))
             0 live)

let prop_cycles_lower_bounds =
  QCheck.Test.make
    ~name:
      "cycles >= ceil(link load / bw) and >= longest serialized path, any \
       model" ~count:100 model_and_messages (fun (model, msgs) ->
      let span = T.round_makespan ~model mesh44 msgs in
      let stats = Pim.Link_stats.create mesh44 in
      ignore (Pim.Router.route_all mesh44 stats msgs);
      let link_bound =
        match Pim.Link_stats.max_link stats with
        | Some (_, _, v) -> LM.hop_cycles model v
        | None -> 0
      in
      let path_bound =
        List.fold_left
          (fun acc m -> max acc (alone_cycles model mesh44 m))
          0 (live_of msgs)
      in
      span >= link_bound && span >= path_bound)

(* Shared-route batches: every message src -> dst over one route. General
   FIFO networks admit scheduling anomalies, but a shared route is a
   tandem of queues, where more bandwidth and deeper buffers can only
   help; the properties below are theorems there. *)
let shared_route_arbitrary =
  let gen =
    let open QCheck.Gen in
    int_bound 15 >>= fun src ->
    int_bound 15 >>= fun dst ->
    list_size (int_range 1 5) (int_range 1 4) >>= fun volumes ->
    return (List.map (fun volume -> msg ~src ~dst ~volume) volumes)
  in
  QCheck.make
    ~print:(fun msgs ->
      String.concat "; "
        (List.map (Format.asprintf "%a" Pim.Router.pp_message) msgs))
    gen

let prop_monotone_in_bandwidth =
  QCheck.Test.make
    ~name:"shared route: cycles non-increasing in bandwidth" ~count:100
    QCheck.(
      triple shared_route_arbitrary (int_range 1 3) (model_arbitrary ()))
    (fun (msgs, extra, model) ->
      let at bandwidth =
        T.round_makespan ~model:{ model with LM.bandwidth } mesh44 msgs
      in
      at (model.LM.bandwidth + extra) <= at model.LM.bandwidth)

let prop_monotone_in_queue_depth =
  QCheck.Test.make
    ~name:"shared route: cycles non-increasing in queue depth" ~count:100
    QCheck.(
      triple shared_route_arbitrary (int_range 1 3)
        (model_arbitrary ~queue_depth:1 ()))
    (fun (msgs, d, model) ->
      let at queue_depth =
        T.round_makespan
          ~model:{ model with LM.queue_depth }
          mesh44 msgs
      in
      let bounded_shallow = at (Some 1) in
      let bounded_deep = at (Some (1 + d)) in
      let unbounded = at None in
      bounded_deep <= bounded_shallow && unbounded <= bounded_deep)

let rounds_of_batches batches =
  List.map
    (fun batch -> { Pim.Simulator.migrations = []; references = batch })
    batches

let batches_arbitrary =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 1 4)
      (list_size (int_range 1 6)
         (triple (int_bound 15) (int_bound 15) (int_range 1 4)))
    >>= fun rounds ->
    return
      (List.map
         (List.map (fun (src, dst, volume) -> msg ~src ~dst ~volume))
         rounds)
  in
  QCheck.make gen

let close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let prop_energy_additivity =
  QCheck.Test.make
    ~name:"energy and counters additive across rounds, any model" ~count:60
    QCheck.(pair (model_arbitrary ()) batches_arbitrary)
    (fun (model, batches) ->
      let whole = T.run ~model mesh44 (rounds_of_batches batches) in
      let parts =
        List.map
          (fun b -> T.run ~model mesh44 (rounds_of_batches [ b ]))
          batches
      in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
      let sumf f = List.fold_left (fun acc p -> acc +. f p) 0. parts in
      whole.T.total_cycles = sum (fun p -> p.T.total_cycles)
      && whole.T.total_volume_hops = sum (fun p -> p.T.total_volume_hops)
      && whole.T.queue_stall_cycles = sum (fun p -> p.T.queue_stall_cycles)
      && whole.T.bandwidth_idle = sum (fun p -> p.T.bandwidth_idle)
      && whole.T.compute_idle = sum (fun p -> p.T.compute_idle)
      && close whole.T.energy (sumf (fun p -> p.T.energy))
      && close whole.T.energy_transport
           (sumf (fun p -> p.T.energy_transport))
      && close whole.T.energy_leakage (sumf (fun p -> p.T.energy_leakage)))

(* The report's own energy fields must agree with the Energy module
   (same expressions, default parameters). *)
let test_energy_matches_energy_module () =
  let trace = fixed_trace mesh44 in
  let problem = Sched.Problem.create mesh44 trace in
  let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
  let rounds = Sched.Schedule.to_rounds schedule trace in
  let report = T.run mesh44 rounds in
  check_float "energy = Energy.of_report" (Pim.Energy.of_report mesh44 report)
    report.T.energy;
  let transport, leakage = Pim.Energy.breakdown mesh44 report in
  check_float "transport term" transport report.T.energy_transport;
  check_float "leakage term" leakage report.T.energy_leakage

(* ------------------------------------------------------------------ *)
(* Closed-form oracles                                                 *)
(* ------------------------------------------------------------------ *)

let prop_lone_message_exact =
  QCheck.Test.make
    ~name:"lone message = flow-shop over its fragments (exact)" ~count:200
    QCheck.(
      quad (int_bound 15) (int_bound 15) (int_range 1 12) (model_arbitrary ()))
    (fun (src, dst, volume, model) ->
      (* bounded queues make a lone message's own fragments block each
         other (a blocking flow shop); the closed form is the unbounded
         recurrence. round_stats charges the destination compute_cycles
         per unit, and the source injects freely, so the compute axis
         only adds a max against the destination's execution time. *)
      let model = { model with LM.queue_depth = None } in
      let work = model.LM.compute_cycles * volume in
      T.round_makespan ~model mesh44 [ msg ~src ~dst ~volume ]
      = if src = dst then work
        else
          max work
            (flow_shop
               ~hops:(Pim.Mesh.distance mesh44 src dst)
               (fragment_times model volume)))

let prop_shared_route_exact =
  QCheck.Test.make
    ~name:"1-3 contending messages on one route = flow-shop (exact)"
    ~count:200
    QCheck.(
      quad (int_bound 15) (int_bound 15)
        (list_of_size (Gen.int_range 1 3) (int_range 1 5))
        (model_arbitrary ()))
    (fun (src, dst, volumes, model) ->
      let model = { model with LM.queue_depth = None } in
      let msgs = List.map (fun volume -> msg ~src ~dst ~volume) volumes in
      let times =
        List.concat_map (fun v -> fragment_times model v) volumes
      in
      let work =
        model.LM.compute_cycles * List.fold_left ( + ) 0 volumes
      in
      T.round_makespan ~model mesh44 msgs
      = if src = dst then work
        else
          max work (flow_shop ~hops:(Pim.Mesh.distance mesh44 src dst) times))

let test_crossing_traffic_pins () =
  (* two volume-2 messages sharing middle link (1,2) of the top row:
     0->2 rides 0,1,2 and 1->3 rides 1,2,3; the second's only conflict
     resolves by FIFO order: both deliver by cycle 4 *)
  check_int "crossing, shared middle link" 4
    (T.round_makespan mesh44
       [ msg ~src:0 ~dst:2 ~volume:2; msg ~src:1 ~dst:3 ~volume:2 ]);
  (* staggered: 0->3 behind 1->3 never waits, pure pipeline *)
  check_int "staggered, no wait" 3
    (T.round_makespan mesh44
       [ msg ~src:0 ~dst:3 ~volume:1; msg ~src:1 ~dst:3 ~volume:1 ]);
  (* bandwidth 2 halves (ceil) each hop: 2 + 1 + 1 on one link *)
  check_int "bandwidth-2 serialization" 4
    (T.round_makespan
       ~model:(LM.create ~bandwidth:2 ())
       mesh44
       [
         msg ~src:0 ~dst:1 ~volume:3;
         msg ~src:0 ~dst:1 ~volume:2;
         msg ~src:0 ~dst:1 ~volume:1;
       ]);
  (* wormhole pipelines the 6-hop volume-3 message the store-and-forward
     model ships in 18 cycles: three unit flits take hops + flits - 1 *)
  check_int "wormhole pipelining" 8
    (T.round_makespan
       ~model:(LM.create ~wormhole:true ~flit:1 ())
       mesh44
       [ msg ~src:0 ~dst:15 ~volume:3 ]);
  check_int "store-and-forward reference" 18
    (T.round_makespan mesh44 [ msg ~src:0 ~dst:15 ~volume:3 ])

let test_queue_depth_backpressure_pin () =
  (* one slow packet on the second link, two fast ones behind it: with a
     depth-1 queue the third finishes its first hop into a full queue and
     must block in place, holding link (0,1) *)
  let msgs =
    [
      msg ~src:0 ~dst:3 ~volume:4;
      msg ~src:0 ~dst:3 ~volume:1;
      msg ~src:0 ~dst:3 ~volume:1;
    ]
  in
  let unbounded = T.round_stats mesh44 msgs in
  let bounded =
    T.round_stats ~model:(LM.create ~queue_depth:1 ()) mesh44 msgs
  in
  check_int "unbounded = flow shop" (flow_shop ~hops:3 [ 4; 1; 1 ])
    unbounded.T.cycles;
  check_int "unbounded never stalls" 0 unbounded.T.queue_stall_cycles;
  check_bool "depth-1 stalls" true (bounded.T.queue_stall_cycles > 0);
  check_bool "backpressure never speeds up" true
    (bounded.T.cycles >= unbounded.T.cycles)

(* ------------------------------------------------------------------ *)
(* Compute occupancy                                                   *)
(* ------------------------------------------------------------------ *)

let test_compute_occupancy_delays_injection () =
  (* rank 0 sinks 3 reference units: at 2 cycles per unit it is busy
     until cycle 6, so its own migration cannot start before then *)
  let rounds =
    [
      {
        Pim.Simulator.migrations = [ msg ~src:0 ~dst:1 ~volume:1 ];
        references = [ msg ~src:4 ~dst:0 ~volume:3 ];
      };
    ]
  in
  let free = T.run mesh44 rounds in
  let busy =
    T.run ~model:(LM.create ~compute_cycles:2 ()) mesh44 rounds
  in
  check_int "free compute: both packets overlap" 3 free.T.total_cycles;
  (* reference 4->0 lands in 3 cycles; migration waits out rank 0's six
     busy cycles and ships on cycle 7 *)
  check_int "occupied source injects late" 7 busy.T.total_cycles;
  check_bool "waiting ranks accounted" true (busy.T.compute_idle > 0);
  (* an all-local round still pays the execution time *)
  let local =
    [
      {
        Pim.Simulator.migrations = [];
        references = [ msg ~src:5 ~dst:5 ~volume:4 ];
      };
    ]
  in
  check_int "local round, free compute" 0 (T.run mesh44 local).T.total_cycles;
  check_int "local round, occupied" 8
    (T.run ~model:(LM.create ~compute_cycles:2 ()) mesh44 local).T.total_cycles

(* ------------------------------------------------------------------ *)
(* Faults × queue depth: stall, never deadlock                         *)
(* ------------------------------------------------------------------ *)

(* Dead links (1,2), (5,6), (9,10) leave row 3 as the only crossing from
   the west columns to the east: three row messages all detour through
   the (13,14) bottleneck. *)
let bottleneck_fault =
  Pim.Fault.create ~dead_links:[ (1, 2); (5, 6); (9, 10) ] ()

let test_fault_detour_stalls_no_deadlock () =
  (* a slow packet occupies the bottleneck link (13,14) from cycle 0
     while two fast detoured packets converge on it; with depth-1 queues
     the second one in line finishes hop (9,13) into a full queue and
     must block in place *)
  let msgs =
    [
      msg ~src:13 ~dst:15 ~volume:4;
      msg ~src:8 ~dst:11 ~volume:1;
      msg ~src:4 ~dst:7 ~volume:1;
    ]
  in
  let free = T.round_stats ~fault:bottleneck_fault mesh44 msgs in
  let squeezed =
    T.round_stats ~fault:bottleneck_fault
      ~model:(LM.create ~queue_depth:1 ())
      mesh44 msgs
  in
  check_int "detours pay the long way round" free.T.volume_hops
    squeezed.T.volume_hops;
  check_bool "depth-1 through the bottleneck stalls" true
    (squeezed.T.queue_stall_cycles > 0);
  check_bool "backpressure never speeds up" true
    (squeezed.T.cycles >= free.T.cycles)

(* Depth-1 queues on detoured traffic stall but never wedge. They do not
   always slow a round down, though. A packet that finishes its hop into
   a full queue blocks in place, and when a slot frees it competes with
   every packet finishing its hop that cycle; the engine hands the slot
   out in injection order. So backpressure can let a long packet
   overtake a short one it trailed in the unbounded run. That is a
   list-scheduling anomaly of FIFO networks with crossing routes (the
   shared-route properties above are the tandem case, where it cannot
   happen), not a simulator fault: the pins below trace one by hand.
   What holds in general is termination, conserved volume-hops and the
   per-round lower bounds. *)
let round_lower_bound ~fault mesh msgs =
  let paths = Pim.Fault.Paths.create mesh fault in
  let loads = Hashtbl.create 16 in
  List.fold_left
    (fun acc (m : Pim.Router.message) ->
      let route =
        Option.get (Pim.Fault.Paths.route paths ~src:m.src ~dst:m.dst)
      in
      let rec walk = function
        | a :: (b :: _ as rest) ->
            let l = Option.value (Hashtbl.find_opt loads (a, b)) ~default:0 in
            Hashtbl.replace loads (a, b) (l + m.volume);
            walk rest
        | _ -> ()
      in
      walk route;
      max acc ((List.length route - 1) * m.volume))
    0 (live_of msgs)
  |> Hashtbl.fold (fun _ l acc -> max acc l) loads

let prop_faulty_bounded_queues_terminate (label, mesh, fault) =
  let arb =
    Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:3 ~max_count:3 ()
  in
  QCheck.Test.make
    ~name:
      ("bounded queues on faulty " ^ label
     ^ ": stall, never deadlock, round lower bounds hold")
    ~count:20 arb
    (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
      let rounds = Sched.Schedule.to_rounds schedule trace in
      let free = T.run ~fault mesh rounds in
      (* raises Deadlock (failing the test) if backpressure ever wedges *)
      let squeezed =
        T.run ~fault ~model:(LM.create ~queue_depth:1 ()) mesh rounds
      in
      squeezed.T.total_volume_hops = free.T.total_volume_hops
      && List.for_all2
           (fun (r : T.round_report) { Pim.Simulator.migrations; references } ->
             r.T.cycles
             >= round_lower_bound ~fault mesh (migrations @ references))
           squeezed.T.rounds rounds)

(* The smallest anomaly found, traced by hand (links are BFS detours
   around [fault_mesh]; one cycle moves one unit):
   - A = 1->12 (volume 2) over 1-5-4-8-12, B = 5->0 over 5-4-0,
     C = 5->12 over 5-4-8-12, D = 9->4 over 9-5-4;
   - unbounded: D finishes its first hop in cycle 0 and queues at link
     5-4 a cycle ahead of A, so A waits for D there: makespan 9;
   - depth 1: in cycle 0 the one slot of 5-4's queue still holds C, so
     D blocks in place; in cycle 1 the slot frees, and A (injected
     first) takes it ahead of the blocked D: makespan 8. *)
let test_backpressure_anomaly_pin () =
  let msgs =
    [
      msg ~src:1 ~dst:12 ~volume:2;
      msg ~src:5 ~dst:0 ~volume:1;
      msg ~src:5 ~dst:12 ~volume:1;
      msg ~src:9 ~dst:4 ~volume:1;
    ]
  in
  let free = T.round_stats ~fault:fault_mesh mesh44 msgs in
  let squeezed =
    T.round_stats ~fault:fault_mesh ~model:(LM.create ~queue_depth:1 ())
      mesh44 msgs
  in
  check_int "unbounded" 9 free.T.cycles;
  check_int "depth 1" 8 squeezed.T.cycles;
  check_bool "depth 1 stalled" true (squeezed.T.queue_stall_cycles > 0);
  check_int "same volume-hops" free.T.volume_hops squeezed.T.volume_hops

(* The counterexamples QCHECK_SEED 5, 15 and 38 drew against the former
   "backpressure never speeds up" statement of the property above, pinned
   as deterministic cases: (seed, topology, unbounded cycles, depth-1
   cycles, trace). *)
let seed_anomalies =
  [
    ( 5,
      "mesh",
      33,
      32,
      Gen.trace mesh44 ~n_data:5
        [
        [(0, 14, 3); (1, 6, 1); (1, 7, 1); (1, 9, 1); (2, 9, 3); (2, 11, 3);
         (2, 13, 3); (2, 14, 3); (3, 2, 1); (4, 9, 2); (4, 13, 2) ];
        [(0, 1, 1); (0, 4, 3); (0, 8, 3); (0, 11, 1); (0, 12, 1); (1, 4, 3);
         (1, 6, 1); (1, 10, 1); (1, 12, 1); (2, 1, 1); (2, 4, 3); (2, 10, 1);
         (2, 11, 2); (2, 12, 1); (3, 0, 1); (3, 3, 1); (3, 4, 2); (3, 7, 4);
         (3, 15, 3); (4, 0, 2); (4, 2, 1); (4, 5, 2); (4, 6, 5); (4, 15, 1) ];
        [(0, 3, 3); (0, 15, 4); (1, 4, 3); (1, 7, 2); (1, 10, 3); (1, 12, 1);
         (2, 5, 3); (2, 7, 3); (4, 0, 1); (4, 2, 3); (4, 3, 1); (4, 9, 3) ];
        ] );
    ( 15,
      "torus",
      46,
      44,
      Gen.trace mesh44 ~n_data:2
        [
        [(0, 0, 1); (0, 1, 2); (0, 2, 2); (0, 4, 4); (0, 6, 2); (0, 7, 6);
         (0, 8, 3); (0, 9, 2); (0, 10, 2); (0, 11, 1); (0, 14, 2); (1, 0, 2);
         (1, 3, 2); (1, 7, 2); (1, 8, 5); (1, 9, 3); (1, 10, 5); (1, 11, 7);
         (1, 12, 2) ];
        [(0, 0, 1); (0, 1, 8); (0, 2, 5); (0, 11, 1); (0, 13, 4); (0, 14, 4);
         (1, 0, 6); (1, 1, 4); (1, 3, 3); (1, 4, 7); (1, 7, 3); (1, 8, 1);
         (1, 11, 2); (1, 12, 3); (1, 13, 1); (1, 14, 2) ];
        [(0, 0, 3); (0, 6, 1); (0, 11, 6); (1, 1, 2); (1, 2, 1); (1, 11, 2) ];
        ] );
    ( 38,
      "mesh",
      41,
      40,
      Gen.trace mesh44 ~n_data:3
        [
        [(0, 0, 1); (0, 1, 3); (0, 4, 2); (0, 6, 1); (0, 7, 4); (0, 10, 1);
         (0, 11, 2); (0, 15, 3); (1, 0, 3); (1, 1, 2); (1, 6, 1); (1, 7, 2);
         (1, 8, 2); (1, 9, 2); (1, 10, 2); (1, 12, 1); (1, 13, 1);
         (1, 14, 1); (1, 15, 2); (2, 2, 3); (2, 4, 2); (2, 11, 2);
         (2, 14, 8); (2, 15, 3) ];
        [(0, 5, 3); (0, 7, 4); (0, 10, 2); (0, 12, 3); (0, 13, 4);
         (0, 15, 2); (1, 0, 1); (1, 4, 1); (1, 13, 2); (1, 14, 3); (2, 1, 2);
         (2, 4, 1); (2, 15, 2) ];
        [(0, 5, 3); (0, 6, 2); (0, 7, 2); (0, 9, 3); (0, 10, 2); (0, 11, 2);
         (0, 12, 5); (0, 15, 1); (1, 1, 1); (1, 3, 2); (1, 6, 2); (1, 7, 1);
         (1, 8, 3); (1, 14, 3); (2, 0, 1); (2, 2, 1); (2, 4, 3); (2, 9, 2);
         (2, 11, 1); (2, 15, 1) ];
        ] );
  ]

let test_seed_anomaly_pins () =
  List.iter
    (fun (seed, topo, free_cycles, squeezed_cycles, trace) ->
      let mesh, fault =
        if topo = "mesh" then (mesh44, fault_mesh) else (torus35, fault_torus)
      in
      let name what = Printf.sprintf "seed %d %s: %s" seed topo what in
      let problem = Sched.Problem.create ~fault mesh trace in
      let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
      let rounds = Sched.Schedule.to_rounds schedule trace in
      let free = T.run ~fault mesh rounds in
      let squeezed =
        T.run ~fault ~model:(LM.create ~queue_depth:1 ()) mesh rounds
      in
      check_int (name "unbounded cycles") free_cycles free.T.total_cycles;
      check_int (name "depth-1 cycles") squeezed_cycles
        squeezed.T.total_cycles;
      check_int (name "volume-hops") free.T.total_volume_hops
        squeezed.T.total_volume_hops)
    seed_anomalies

let faulty_bounded_cases =
  [ ("mesh", mesh44, fault_mesh); ("torus", torus35, fault_torus) ]

(* ------------------------------------------------------------------ *)
(* Honest stats sanity                                                 *)
(* ------------------------------------------------------------------ *)

let prop_honest_stats_sane =
  QCheck.Test.make
    ~name:"link_utilization in [0,1], bandwidth_idle >= 0, any model"
    ~count:100 model_and_messages (fun (model, msgs) ->
      let r = T.round_stats ~model mesh44 msgs in
      r.T.link_utilization >= 0.
      && r.T.link_utilization <= 1.
      && r.T.bandwidth_idle >= 0
      && r.T.queue_stall_cycles >= 0
      && r.T.compute_idle >= 0)

let suite =
  [
    Gen.case "differential: every scheduler, every topo x fault"
      test_differential_every_scheduler;
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 0));
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 1));
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 2));
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 3));
    Gen.to_alcotest prop_differential_raw_batches;
    Gen.to_alcotest prop_flit_conservation;
    Gen.to_alcotest prop_volume_hops_invariant;
    Gen.to_alcotest prop_cycles_lower_bounds;
    Gen.to_alcotest prop_monotone_in_bandwidth;
    Gen.to_alcotest prop_monotone_in_queue_depth;
    Gen.to_alcotest prop_energy_additivity;
    Gen.case "energy fields match Energy module"
      test_energy_matches_energy_module;
    Gen.to_alcotest prop_lone_message_exact;
    Gen.to_alcotest prop_shared_route_exact;
    Gen.case "crossing-traffic pins" test_crossing_traffic_pins;
    Gen.case "queue-depth backpressure pin" test_queue_depth_backpressure_pin;
    Gen.case "compute occupancy delays injection"
      test_compute_occupancy_delays_injection;
    Gen.case "fault detour through bottleneck stalls, no deadlock"
      test_fault_detour_stalls_no_deadlock;
    Gen.to_alcotest
      (prop_faulty_bounded_queues_terminate (List.nth faulty_bounded_cases 0));
    Gen.to_alcotest
      (prop_faulty_bounded_queues_terminate (List.nth faulty_bounded_cases 1));
    Gen.case "backpressure anomaly pin (crossing detours)"
      test_backpressure_anomaly_pin;
    Gen.case "backpressure anomalies at seeds 5, 15, 38" test_seed_anomaly_pins;
    Gen.to_alcotest prop_honest_stats_sane;
  ]
