(* The pre-model timed engine, kept verbatim as the pinned oracle for the
   differential suite (test_timed_model.ml): [Pim.Timed_simulator.run
   ~model:Link_model.degenerate] must reproduce these reports
   byte-identically — field by field, including the legacy utilization
   float. Bandwidth-1 store-and-forward with unbounded queues and free
   compute. Like [Cost_naive] and [Layered.solve_dense], this copy is the
   spec — including its O(n²) [List.mem] membership scan, which the live
   engine replaces with a hash-set. Do not "fix" it. *)

open Pim

let links_of_route path =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  Array.of_list (go [] path)

let paths_of_fault mesh fault =
  if Fault.is_none fault then None else Some (Fault.Paths.create mesh fault)

type packet = {
  id : int;
  links : (int * int) array; (* consecutive (from, to) hops of the route *)
  volume : int;
  mutable hop : int; (* index of the link being traversed *)
  mutable remaining : int; (* volume units left on the current link *)
}

type round_report = {
  round : int;
  cycles : int;
  messages : int;
  volume_hops : int;
  utilization : float;
}

type report = {
  rounds : round_report list;
  total_cycles : int;
  total_volume_hops : int;
}

(* Simulate one batch of packets to completion; returns the makespan. *)
let simulate ?paths mesh (msgs : Router.message list) =
  let live =
    List.filter
      (fun (m : Router.message) -> m.src <> m.dst && m.volume > 0)
      msgs
  in
  let route_of (m : Router.message) =
    match paths with
    | None -> Mesh.xy_route mesh ~src:m.src ~dst:m.dst
    | Some o -> (
        match Fault.Paths.route o ~src:m.src ~dst:m.dst with
        | Some path -> path
        | None -> raise (Fault.Unreachable (m.src, m.dst)))
  in
  let packets =
    List.mapi
      (fun id (m : Router.message) ->
        let links = links_of_route (route_of m) in
        { id; links; volume = m.volume; hop = 0; remaining = m.volume })
      live
  in
  (* per-link state: the packet currently transmitting plus a FIFO queue *)
  let owner : (int * int, packet option ref) Hashtbl.t = Hashtbl.create 64 in
  let queue : (int * int, packet Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let queue_of link =
    match Hashtbl.find_opt queue link with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add queue link q;
        q
  in
  let owner_of link =
    match Hashtbl.find_opt owner link with
    | Some r -> r
    | None ->
        let r = ref None in
        Hashtbl.add owner link r;
        r
  in
  let active_links = ref [] in
  let activate link =
    if not (List.mem link !active_links) then
      active_links := link :: !active_links
  in
  List.iter
    (fun p ->
      let link = p.links.(0) in
      Queue.add p (queue_of link);
      activate link)
    packets;
  let remaining_packets = ref (List.length packets) in
  let cycle = ref 0 in
  while !remaining_packets > 0 do
    (* grant idle links to the head of their queue *)
    List.iter
      (fun link ->
        let o = owner_of link in
        if !o = None then
          let q = queue_of link in
          if not (Queue.is_empty q) then o := Some (Queue.pop q))
      !active_links;
    (* transmit one unit on every busy link; collect hop completions *)
    let advanced = ref [] in
    List.iter
      (fun link ->
        let o = owner_of link in
        match !o with
        | Some p ->
            p.remaining <- p.remaining - 1;
            if p.remaining = 0 then begin
              o := None;
              advanced := p :: !advanced
            end
        | None -> ())
      !active_links;
    (* completed hops queue at the next link starting next cycle *)
    List.iter
      (fun p ->
        p.hop <- p.hop + 1;
        if p.hop >= Array.length p.links then decr remaining_packets
        else begin
          p.remaining <- p.volume;
          let link = p.links.(p.hop) in
          Queue.add p (queue_of link);
          activate link
        end)
      (List.sort (fun a b -> Int.compare a.id b.id) !advanced);
    incr cycle
  done;
  let volume_hops =
    List.fold_left
      (fun acc p -> acc + (p.volume * Array.length p.links))
      0 packets
  in
  let live_links = List.length !active_links in
  (!cycle, List.length packets, volume_hops, live_links)

let round_makespan ?(fault = Fault.none) mesh msgs =
  let cycles, _, _, _ =
    simulate ?paths:(paths_of_fault mesh fault) mesh msgs
  in
  cycles

let run ?(fault = Fault.none) mesh rounds =
  let paths = paths_of_fault mesh fault in
  let reports =
    List.mapi
      (fun idx { Simulator.migrations; references } ->
        let cycles, messages, volume_hops, live_links =
          simulate ?paths mesh (migrations @ references)
        in
        let utilization =
          if cycles = 0 || live_links = 0 then 0.
          else float_of_int volume_hops /. float_of_int (live_links * cycles)
        in
        { round = idx; cycles; messages; volume_hops; utilization })
      rounds
  in
  {
    rounds = reports;
    total_cycles = List.fold_left (fun acc r -> acc + r.cycles) 0 reports;
    total_volume_hops =
      List.fold_left (fun acc r -> acc + r.volume_hops) 0 reports;
  }
