let links_of_route path =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  Array.of_list (go [] path)

let paths_of_fault mesh fault =
  if Fault.is_none fault then None else Some (Fault.Paths.create mesh fault)

(* ------------------------------------------------------------------ *)
(* The live engine: same three-phase cycle loop, parameterized by a
   Link_model.t. Under Link_model.degenerate every branch below reduces
   to the pre-model engine's semantics step for step (its verbatim copy
   is the differential suite's oracle, [Oracle.Timed_reference]): one
   fragment per message with the same injection ids, min bw remaining = 1 unit per cycle,
   queue room always available (so the advance phase never parks a
   packet), and a ready array of zeros (so grants are unconditional). *)

exception Deadlock of { cycle : int; in_flight : int }

type round_report = {
  round : int;
  cycles : int;
  messages : int;
  volume_hops : int;
  utilization : float;
  flits : int;
  link_utilization : float;
  bandwidth_idle : int;
  queue_stall_cycles : int;
  compute_idle : int;
}

type report = {
  rounds : round_report list;
  total_cycles : int;
  total_volume_hops : int;
  link_utilization : float;
  bandwidth_idle : int;
  queue_stall_cycles : int;
  compute_idle : int;
  energy_transport : float;
  energy_leakage : float;
  energy : float;
}

type packet = {
  id : int; (* injection order over fragments; FIFO tie-break *)
  src : int; (* injecting rank, for compute-occupancy eligibility *)
  links : (int * int) array;
  volume : int; (* fragment volume re-transmitted at every hop *)
  mutable hop : int;
  mutable remaining : int; (* units left on the current hop; 0 = blocked *)
}

(* Per-link state, reached through one hashtable probe on activation and
   then iterated directly: [order] carries the state records themselves,
   so the cycle loop never re-probes the table (the pre-model engine
   re-probes twice per link per cycle and pays an O(n²) List.mem on every
   activation). *)
type link_state = {
  link : int * int;
  mutable owner : packet option;
  q : packet Queue.t;
  mutable busy : int; (* cycles spent transmitting *)
  mutable held : int; (* cycles occupied but idle: blocked owner or
                         compute-ineligible head *)
}

type round_stats = {
  rs_cycles : int;
  rs_messages : int;
  rs_flits : int;
  rs_volume_hops : int;
  rs_live_links : int;
  rs_busy : int; (* Σ per-link busy cycles *)
  rs_live : int; (* Σ per-link busy + held cycles *)
  rs_stalls : int; (* Σ blocked-packet cycles (backpressure) *)
}

let simulate_model ?paths ~(model : Link_model.t) ~(ready : int array) mesh
    (msgs : Router.message list) =
  let live =
    List.filter (fun (m : Router.message) -> m.src <> m.dst && m.volume > 0) msgs
  in
  let route_of (m : Router.message) =
    match paths with
    | None -> Mesh.xy_route mesh ~src:m.src ~dst:m.dst
    | Some o -> (
        match Fault.Paths.route o ~src:m.src ~dst:m.dst with
        | Some path -> path
        | None -> raise (Fault.Unreachable (m.src, m.dst)))
  in
  (* One packet per fragment, ids in message order then fragment order:
     with wormhole off this is exactly one packet per message with the
     pre-model ids; with wormhole on the fragments of a message enter the
     first link's FIFO consecutively and pipeline hop by hop. *)
  let next_id = ref 0 in
  let packets =
    List.concat_map
      (fun (m : Router.message) ->
        let links = links_of_route (route_of m) in
        List.map
          (fun volume ->
            let id = !next_id in
            incr next_id;
            { id; src = m.src; links; volume; hop = 0; remaining = volume })
          (Link_model.fragments model ~volume:m.volume))
      live
  in
  if !Obs.enabled then
    List.iter
      (fun p -> Obs.Metrics.observe "sim.packet_hops" (Array.length p.links))
      packets;
  let states : (int * int, link_state) Hashtbl.t = Hashtbl.create 64 in
  let active = ref [] in
  let state_of link =
    match Hashtbl.find_opt states link with
    | Some st -> st
    | None ->
        let st = { link; owner = None; q = Queue.create (); busy = 0; held = 0 } in
        Hashtbl.add states link st;
        active := st :: !active;
        st
  in
  let room st =
    match model.queue_depth with
    | None -> true
    | Some d -> Queue.length st.q < d
  in
  List.iter (fun p -> Queue.add p (state_of p.links.(0)).q) packets;
  let max_ready = Array.fold_left max 0 ready in
  let remaining_packets = ref (List.length packets) in
  let stalls = ref 0 in
  let blocked = ref [] in
  let cycle = ref 0 in
  while !remaining_packets > 0 do
    (* grant idle links to the head of their queue; a hop-0 head whose
       source rank is still computing is not eligible yet *)
    List.iter
      (fun st ->
        if st.owner = None && not (Queue.is_empty st.q) then begin
          let head = Queue.peek st.q in
          if head.hop > 0 || !cycle >= ready.(head.src) then
            st.owner <- Some (Queue.pop st.q)
        end)
      !active;
    (* transmit up to [bandwidth] units on every busy link *)
    let units_moved = ref 0 in
    let finished = ref [] in
    List.iter
      (fun st ->
        match st.owner with
        | Some p when p.remaining > 0 ->
            let units = min model.bandwidth p.remaining in
            p.remaining <- p.remaining - units;
            units_moved := !units_moved + units;
            st.busy <- st.busy + 1;
            if p.remaining = 0 then finished := (st, p) :: !finished
        | Some _ ->
            (* blocked packet from an earlier cycle holds the link idle *)
            st.held <- st.held + 1
        | None -> if not (Queue.is_empty st.q) then st.held <- st.held + 1)
      !active;
    (* advance blocked and freshly-finished packets in id order: retire,
       or move to the next link if its queue has room; a full downstream
       queue parks the packet in place, holding its link (backpressure) *)
    let candidates =
      List.sort
        (fun (_, a) (_, b) -> Int.compare a.id b.id)
        (!blocked @ !finished)
    in
    blocked := [];
    let advanced = ref false in
    List.iter
      (fun (st, p) ->
        if p.hop + 1 >= Array.length p.links then begin
          st.owner <- None;
          decr remaining_packets;
          advanced := true
        end
        else begin
          let next = state_of p.links.(p.hop + 1) in
          if room next then begin
            st.owner <- None;
            p.hop <- p.hop + 1;
            p.remaining <- p.volume;
            Queue.add p next.q;
            advanced := true
          end
          else begin
            incr stalls;
            blocked := (st, p) :: !blocked
          end
        end)
      candidates;
    if
      !remaining_packets > 0
      && !units_moved = 0
      && (not !advanced)
      && !cycle >= max_ready
    then raise (Deadlock { cycle = !cycle; in_flight = !remaining_packets });
    incr cycle
  done;
  let cycles =
    if model.compute_cycles > 0 then max !cycle max_ready else !cycle
  in
  let volume_hops =
    List.fold_left (fun acc p -> acc + (p.volume * Array.length p.links)) 0
      packets
  in
  let busy, held =
    List.fold_left
      (fun (b, h) st -> (b + st.busy, h + st.held))
      (0, 0) !active
  in
  {
    rs_cycles = cycles;
    rs_messages = List.length live;
    rs_flits = List.length packets;
    rs_volume_hops = volume_hops;
    rs_live_links = List.length !active;
    rs_busy = busy;
    rs_live = busy + held;
    rs_stalls = !stalls;
  }

(* Compute occupancy: a rank executing a window's operations cannot
   inject until it is done. A rank's occupancy is [compute_cycles] per
   reference volume unit it sinks this round — local (src = dst)
   references count: the data is resident but the operations still
   execute. *)
let ready_of ~(model : Link_model.t) ~size (ops : Router.message list) =
  let ready = Array.make size 0 in
  if model.compute_cycles > 0 then
    List.iter
      (fun (m : Router.message) ->
        if m.volume > 0 then
          ready.(m.dst) <- ready.(m.dst) + (model.compute_cycles * m.volume))
      ops;
  ready

let compute_idle_of ~(model : Link_model.t) ~ready cycles =
  if model.compute_cycles = 0 then 0
  else Array.fold_left (fun acc r -> acc + (cycles - min cycles r)) 0 ready

let report_of_stats ~model ~ready idx s =
  {
    round = idx;
    cycles = s.rs_cycles;
    messages = s.rs_messages;
    volume_hops = s.rs_volume_hops;
    utilization =
      (if s.rs_cycles = 0 || s.rs_live_links = 0 then 0.
       else
         float_of_int s.rs_volume_hops
         /. float_of_int (s.rs_live_links * s.rs_cycles));
    flits = s.rs_flits;
    link_utilization =
      (if s.rs_live = 0 then 0.
       else float_of_int s.rs_busy /. float_of_int s.rs_live);
    bandwidth_idle = (s.rs_live_links * s.rs_cycles) - s.rs_busy;
    queue_stall_cycles = s.rs_stalls;
    compute_idle = compute_idle_of ~model ~ready s.rs_cycles;
  }

let round_stats ?(fault = Fault.none) ?(model = Link_model.degenerate) mesh msgs
    =
  let ready = ready_of ~model ~size:(Mesh.size mesh) msgs in
  let s =
    simulate_model ?paths:(paths_of_fault mesh fault) ~model ~ready mesh msgs
  in
  report_of_stats ~model ~ready 0 s

let round_makespan ?fault ?model mesh msgs =
  (round_stats ?fault ?model mesh msgs).cycles

let run ?(fault = Fault.none) ?(model = Link_model.degenerate) mesh rounds =
  Obs.Span.with_ ~name:"sim.timed_run" @@ fun () ->
  let paths = paths_of_fault mesh fault in
  let size = Mesh.size mesh in
  let busy_sum = ref 0 and live_sum = ref 0 in
  let reports =
    List.mapi
      (fun idx { Simulator.migrations; references } ->
        let ready = ready_of ~model ~size references in
        let s = simulate_model ?paths ~model ~ready mesh (migrations @ references) in
        if !Obs.enabled then begin
          Obs.Metrics.add "sim.cycles" s.rs_cycles;
          Obs.Metrics.add "sim.messages" s.rs_messages;
          Obs.Metrics.add "sim.volume_hops" s.rs_volume_hops;
          Obs.Metrics.add "sim.flits" s.rs_flits;
          Obs.Metrics.add "sim.queue_stalls" s.rs_stalls
        end;
        busy_sum := !busy_sum + s.rs_busy;
        live_sum := !live_sum + s.rs_live;
        report_of_stats ~model ~ready idx s)
      rounds
  in
  let total_cycles = List.fold_left (fun acc r -> acc + r.cycles) 0 reports in
  let total_volume_hops =
    List.fold_left (fun acc r -> acc + r.volume_hops) 0 reports
  in
  (* Same expressions as Energy.breakdown, priced with the model's
     parameters, so [report.energy = Energy.of_report mesh report] holds
     bit for bit under the default parameters (a pinned test). *)
  let energy_transport =
    model.energy.per_hop *. float_of_int total_volume_hops
  in
  let energy_leakage =
    model.energy.leak *. float_of_int size *. float_of_int total_cycles
  in
  {
    rounds = reports;
    total_cycles;
    total_volume_hops;
    link_utilization =
      (if !live_sum = 0 then 0.
       else float_of_int !busy_sum /. float_of_int !live_sum);
    bandwidth_idle =
      List.fold_left (fun acc (r : round_report) -> acc + r.bandwidth_idle) 0
        reports;
    queue_stall_cycles =
      List.fold_left
        (fun acc (r : round_report) -> acc + r.queue_stall_cycles)
        0 reports;
    compute_idle =
      List.fold_left (fun acc (r : round_report) -> acc + r.compute_idle) 0
        reports;
    energy_transport;
    energy_leakage;
    energy = energy_transport +. energy_leakage;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "timed: %d cycles over %d rounds (%d volume-hops, mean utilization %.2f, \
     link utilization %.2f, %d stall cycles, energy %.1f)"
    r.total_cycles (List.length r.rounds) r.total_volume_hops
    (match r.rounds with
    | [] -> 0.
    | rounds ->
        List.fold_left (fun acc x -> acc +. x.utilization) 0. rounds
        /. float_of_int (List.length rounds))
    r.link_utilization r.queue_stall_cycles r.energy
