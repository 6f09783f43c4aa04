(* The paper's processor lists, spelled out: every rank sorted by
   (cost, rank), cached per (datum, window) of a session, alive ranks
   only. Bounded placement now takes the list's head with room straight
   off the cost row ([Sched.Processor_list.choose]); these are the lists
   it is pinned against, with the cache, its fault-patch carry-over and
   the parallel prefetches that once fed LOMCDS and SCDS. *)

(* Costs are dense small ints in practice, so a stable counting pass
   replaces the comparison sort: filling in ascending rank order keeps
   the (cost, rank) tie order. Wide ranges (rows holding the unreachable
   sentinel) fall back to the comparison sort. *)
let of_costs ~n cost =
  if n = 0 then []
  else begin
    let costs = Array.init n cost in
    let lo = ref costs.(0) and hi = ref costs.(0) in
    for r = 1 to n - 1 do
      let c = costs.(r) in
      if c < !lo then lo := c;
      if c > !hi then hi := c
    done;
    let range = !hi - !lo + 1 in
    if range <= (4 * n) + 1024 then begin
      let start = Array.make (range + 1) 0 in
      for r = 0 to n - 1 do
        let c = costs.(r) - !lo in
        start.(c + 1) <- start.(c + 1) + 1
      done;
      for c = 1 to range do
        start.(c) <- start.(c) + start.(c - 1)
      done;
      let out = Array.make n 0 in
      for r = 0 to n - 1 do
        let c = costs.(r) - !lo in
        out.(start.(c)) <- r;
        start.(c) <- start.(c) + 1
      done;
      Array.to_list out
    end
    else
      List.sort
        (fun a b ->
          let c = Int.compare costs.(a) costs.(b) in
          if c <> 0 then c else Int.compare a b)
        (List.init n Fun.id)
  end

let of_cost_vector v = of_costs ~n:(Array.length v) (Array.get v)

(* the list for [data] under [window]'s reference string *)
let for_data mesh window ~data =
  of_cost_vector (Sched.Cost.cost_vector mesh window ~data)

(* ---- the per-session list cache ---- *)

type t = {
  problem : Sched.Problem.t;
  cands : int list option array array; (* .(data).(window), merged last *)
}

let of_problem problem =
  let cells = Sched.Problem.n_windows problem + 1 in
  {
    problem;
    cands =
      Array.init (Sched.Problem.n_data problem) (fun _ ->
          Array.make cells None);
  }

let problem t = t.problem

(* dead ranks are cut out of every list *)
let alive_only problem l =
  if Pim.Fault.has_node_faults (Sched.Problem.fault problem) then
    List.filter (Sched.Problem.rank_alive problem) l
  else l

let candidates t ~window ~data =
  match t.cands.(data).(window) with
  | Some l -> l
  | None ->
      let r = Sched.Problem.row t.problem ~window ~data in
      let l =
        alive_only t.problem
          (of_costs
             ~n:(Pim.Mesh.size (Sched.Problem.mesh t.problem))
             (Pathgraph.Layered.entry r))
      in
      t.cands.(data).(window) <- Some l;
      l

(* monotone growth: every element of ascending [a] appears in ascending
   [b] *)
let rec subset_asc a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then subset_asc a' b'
      else if y < x then subset_asc a b'
      else false

(* A list survives a patch that keeps the dead links (every row, so every
   cost, unchanged) and only adds dead nodes, filtered down to the new
   alive set; any other patch drops every list. *)
let with_fault_patch t fault =
  let old_fault = Sched.Problem.fault t.problem in
  let problem = Sched.Problem.with_fault_patch t.problem fault in
  let carry =
    Pim.Fault.dead_links fault = Pim.Fault.dead_links old_fault
    && subset_asc (Pim.Fault.dead_nodes old_fault) (Pim.Fault.dead_nodes fault)
  in
  {
    problem;
    cands =
      Array.map
        (Array.map (fun c ->
             if carry then Option.map (alive_only problem) c else None))
        t.cands;
  }

(* Per datum, every list LOMCDS's bounded walk reads: each referencing
   window's, or the merged window's for a datum nothing references. *)
let prefetch_referenced t =
  let p = t.problem in
  let nw = Sched.Problem.n_windows p in
  Sched.Engine.iter ~jobs:(Sched.Problem.jobs p) (Sched.Problem.n_data p)
    (fun data ->
      let referenced = ref false in
      for w = 0 to nw - 1 do
        if Reftrace.Window.references (Sched.Problem.window p w) data > 0
        then begin
          referenced := true;
          ignore (candidates t ~window:w ~data)
        end
      done;
      if not !referenced then ignore (candidates t ~window:nw ~data))

(* every merged-window list: SCDS's working set *)
let prefetch_merged t =
  let p = t.problem in
  Sched.Engine.iter ~jobs:(Sched.Problem.jobs p) (Sched.Problem.n_data p)
    (fun data ->
      ignore (candidates t ~window:(Sched.Problem.n_windows p) ~data))

(* ---- explicit lists: the head with room, and the nearest-rank order ---- *)

(* the first rank of an explicit list with a free slot, without
   allocating *)
let first_available memory list =
  List.find_opt (fun rank -> not (Pim.Memory.is_full memory rank)) list

(* allocate at [first_available] *)
let assign memory list =
  match first_available memory list with
  | Some rank ->
      let ok = Pim.Memory.allocate memory rank in
      assert ok;
      rank
  | None -> failwith "Candidates.assign: all candidate processors full"

(* Every alive rank sorted by the session's distance from [target], ties
   by rank — the order Grouping's bounded repair once walked. *)
let ranks_near problem ~target =
  List.init (Pim.Mesh.size (Sched.Problem.mesh problem)) Fun.id
  |> List.filter (Sched.Problem.rank_alive problem)
  |> List.sort (fun a b ->
         let d r = Sched.Problem.distance problem target r in
         let c = Int.compare (d a) (d b) in
         if c <> 0 then c else Int.compare a b)

(* The session's metric from [target] as a row, the form
   [Sched.Processor_list.place] takes: per-axis hop counts on the mesh's
   shape, or the BFS table's own row under link faults. *)
let distance_row problem ~target : Pathgraph.Layered.row =
  match Sched.Problem.relaxation problem with
  | Table { dist; _ } -> Full dist.(target)
  | Axes { cols; rows; wrap } ->
      let hops extent a =
        Array.init extent (Pim.Mesh.axis_hops ~wrap ~extent a)
      in
      Axis_sum (hops cols (target mod cols), hops rows (target / cols))
