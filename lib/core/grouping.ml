type center_policy = [ `Local | `Global ]
type group = { first : int; last : int; center : int }

(* The greedy is generic in how a group's running cost state is represented:
   per-axis marginal pairs on a healthy context (summing two
   O(cols + rows) histograms prices a candidate merge without
   materializing the merged window's O(cols · rows) vector), or full
   fault-priced cost vectors on a degraded one. [best] must return the
   {e lowest-rank} minimum center so both representations make the
   greedy decisions the vector walk would. States are never mutated, so
   the greedy keeps them without copying. *)
type 'vec ops = {
  join : 'vec -> 'vec -> 'vec;  (* fresh sum; arguments untouched *)
  best : 'vec -> int * int;  (* (lowest-rank argmin center, its cost) *)
}

let sum a b = Array.init (Array.length a) (fun i -> a.(i) + b.(i))

(* Vector ops whose [best] skips dead ranks (ties still break to the
   lowest alive rank) — the link-faulted context's currency: its rows are
   BFS-priced, only center choice needs the mask. *)
let masked_vector_ops alive =
  {
    join = sum;
    best =
      (fun v ->
        let best = ref (-1) in
        for i = 0 to Array.length v - 1 do
          if alive i && (!best < 0 || v.(i) < v.(!best)) then best := i
        done;
        (!best, v.(!best)));
  }

(* Marginal pairs, priced as the axis-sum row they span: the axis
   minima are its lowest-rank minimizer, and only a dead one builds the
   row for the masked {!Pathgraph.Layered.argmin} (the lowest alive rank
   among the minimizers). Node faults keep routers: they only mask. *)
let marginal_ops ?admit ~wrap () =
  {
    join = (fun (ax, ay) (bx, by) -> (sum ax bx, sum ay by));
    best =
      (fun ((mx, my) as m) ->
        let ((c, _) as best) = Cost.argmin_of_marginals ~wrap m in
        match admit with
        | Some a when Bytes.get a c = '\000' ->
            let row =
              Pathgraph.Layered.Axis_sum
                (Cost.axis_cost ~wrap mx, Cost.axis_cost ~wrap my)
            in
            let c = Pathgraph.Layered.argmin ~admit:a row in
            (c, Pathgraph.Layered.entry row c)
        | _ -> best);
  }

(* Greedy partition of the referenced-window subsequence, following
   Algorithm 3: keep extending the current group while the total cost of the
   whole partition does not increase. Costs are evaluated with local-optimal
   centers, exploiting linearity of the cost model in reference profiles.

   Returns the partition as index ranges into the subsequence plus the
   summed cost state of each group. *)
let greedy_ranges ~ops ~dist ~items ~n =
  let bests = Array.map ops.best items in
  let centers = Array.map fst bests in
  let refcosts = Array.map snd bests in
  (* tail.(i) = cost of running windows i..n-1 as singletons, excluding the
     link into window i. *)
  let tail = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    let link = if i + 1 < n then dist centers.(i) centers.(i + 1) else 0 in
    tail.(i) <- refcosts.(i) + link + tail.(i + 1)
  done;
  let finalized = ref [] in
  let fin_cost = ref 0 in
  let last_center = ref None in
  let link_from_last c =
    match !last_center with None -> 0 | Some p -> dist p c
  in
  (* the running group: its summed state and its (center, cost) *)
  let start = ref 0 in
  let sumvec = ref items.(0) in
  let cur = ref bests.(0) in
  let finalize stop =
    let c, cost = !cur in
    fin_cost := !fin_cost + link_from_last c + cost;
    last_center := Some c;
    finalized := (!start, stop, !sumvec, c) :: !finalized
  in
  let accepted = ref 0 in
  for j = 1 to n - 1 do
    let cur_center, cur_ref = !cur in
    let prev_total =
      !fin_cost + link_from_last cur_center + cur_ref
      + dist cur_center centers.(j)
      + tail.(j)
    in
    let candidate = ops.join !sumvec items.(j) in
    let ((cand_center, cand_ref) as cand) = ops.best candidate in
    let next_link =
      if j + 1 < n then dist cand_center centers.(j + 1) + tail.(j + 1)
      else 0
    in
    let new_total =
      !fin_cost + link_from_last cand_center + cand_ref + next_link
    in
    if new_total <= prev_total then begin
      incr accepted;
      sumvec := candidate;
      cur := cand
    end
    else begin
      finalize (j - 1);
      start := j;
      sumvec := items.(j);
      cur := bests.(j)
    end
  done;
  finalize (n - 1);
  if !Obs.enabled then begin
    (* every window past the first is one attempted merge into the
       running group (Algorithm 3's extension test) *)
    Obs.Metrics.add "grouping.merge_attempts" (n - 1);
    Obs.Metrics.add "grouping.merges_accepted" !accepted
  end;
  List.rev !finalized

(* Re-optimize group centers with the shortest-path DP (GOMCDS over merged
   windows), one row per group; dead ranks are masked after relaxation. *)
let refine_centers problem rows =
  let admit = Problem.alive_admit problem in
  let block =
    { Pathgraph.Layered.relaxation = Problem.relaxation problem; rows }
  in
  snd
    (Option.get
       (Pathgraph.Layered.solve ?admit ~n_layers:(Array.length rows)
          [| block |]))

(* The [`Global] pass over greedy ranges: [row_of state] is a group's
   cost row from its summed state. *)
let refine_ranges problem ~row_of ranges =
  let rows = Array.of_list (List.map (fun (_, _, v, _) -> row_of v) ranges) in
  let centers = refine_centers problem rows in
  List.mapi (fun i (lo, hi, v, _) -> (lo, hi, v, centers.(i))) ranges

(* Referenced-window subsequence of one datum: window indices plus each
   window's cached pricing input, [get ~window ~data] — fault-priced cost
   vectors or axis marginals. *)
let referenced problem ~data get =
  let indices = ref [] in
  for w = Problem.n_windows problem - 1 downto 0 do
    if Reftrace.Window.references (Problem.window problem w) data > 0 then
      indices := w :: !indices
  done;
  let indices = Array.of_list !indices in
  (indices, Array.map (fun window -> get ~window ~data) indices)

let to_groups indices ranges =
  List.map
    (fun (lo, hi, _, center) ->
      { first = indices.(lo); last = indices.(hi); center })
    ranges

let groups problem ~data ~centers =
  let dist = Problem.distance problem in
  if Pim.Fault.has_link_faults (Problem.fault problem) then begin
    (* Link-faulted context: run the vector path — the session rows carry
       the BFS prices (marginal pricing would ignore dead links), and the
       masked ops keep centers off dead ranks. *)
    let alive = Problem.rank_alive problem in
    let indices, vectors =
      referenced problem ~data (Problem.cost_vector problem)
    in
    match Array.length vectors with
    | 0 -> []
    | n ->
        let ops = masked_vector_ops alive in
        let ranges = greedy_ranges ~ops ~dist ~items:vectors ~n in
        let ranges =
          match centers with
          | `Local -> ranges
          | `Global ->
              refine_ranges problem ranges ~row_of:(fun v -> Problem.Full v)
        in
        to_groups indices ranges
  end
  else begin
    (* healthy or node-faulted: distances are the mesh's, so marginals
       price every merge and only center choice skips dead ranks *)
    let wrap = Pim.Mesh.wraps (Problem.mesh problem) in
    let admit = Option.map (fun row -> row 0) (Problem.alive_admit problem) in
    let indices, margs =
      referenced problem ~data (Problem.marginals problem)
    in
    match Array.length margs with
    | 0 -> []
    | n ->
        let ranges =
          greedy_ranges ~ops:(marginal_ops ?admit ~wrap ()) ~dist
            ~items:margs ~n
        in
        let ranges =
          match centers with
          | `Local -> ranges
          | `Global ->
              refine_ranges problem ranges ~row_of:(fun (mx, my) ->
                  Problem.Axis_sum
                    (Cost.axis_cost ~wrap mx, Cost.axis_cost ~wrap my))
        in
        to_groups indices ranges
  end

(* Exact DP over all (partition, centers) choices for one datum.
   dp.(i).(c) = cheapest cost of covering referenced windows 0..i with the
   last group ending at i and centered at c. Prefix-summed cost vectors make
   any group's vector O(m) to read off. *)
let optimal_ranges ?(ok = fun _ -> true) ~dist ~vectors ~n () =
  let m = Array.length vectors.(0) in
  let prefix = Array.make_matrix (n + 1) m 0 in
  for i = 0 to n - 1 do
    for c = 0 to m - 1 do
      prefix.(i + 1).(c) <- prefix.(i).(c) + vectors.(i).(c)
    done
  done;
  let group_ref j i c = prefix.(i + 1).(c) - prefix.(j).(c) in
  let inf = max_int / 2 in
  let dp = Array.make_matrix n m inf in
  let parent = Array.make_matrix n m (-1) in
  (* best_in.(j).(c) = min over c' of dp.(j).(c') + dist c' c *)
  let best_in = Array.make_matrix n m inf in
  for i = 0 to n - 1 do
    for c = 0 to m - 1 do
      (* dead centers keep dp = inf, so they never host a group and the
         best_in minimization skips them for free *)
      if ok c then
        (* last group = (j..i) for some j *)
        for j = 0 to i do
          let base =
            if j = 0 then 0
            else best_in.(j - 1).(c)
          in
          if base < inf then begin
            let cost = base + group_ref j i c in
            if cost < dp.(i).(c) then begin
              dp.(i).(c) <- cost;
              parent.(i).(c) <- j
            end
          end
        done
    done;
    for c = 0 to m - 1 do
      let best = ref inf in
      for c' = 0 to m - 1 do
        if dp.(i).(c') < inf then
          best := min !best (dp.(i).(c') + dist c' c)
      done;
      best_in.(i).(c) <- !best
    done
  done;
  (* reconstruction: the feeding center of a group starting at [j] with
     center [c] is the argmin the best_in minimization used — recomputed
     with the same deterministic iteration order *)
  let feeding j c =
    let best = ref inf and arg = ref (-1) in
    for c' = 0 to m - 1 do
      if dp.(j).(c') < inf then begin
        let v = dp.(j).(c') + dist c' c in
        if v < !best then begin
          best := v;
          arg := c'
        end
      end
    done;
    !arg
  in
  let final_center = ref 0 in
  for c = 1 to m - 1 do
    if dp.(n - 1).(c) < dp.(n - 1).(!final_center) then final_center := c
  done;
  let rec rebuild i c acc =
    let j = parent.(i).(c) in
    let group = (j, i, [||], c) in
    if j = 0 then group :: acc
    else
      let c' = feeding (j - 1) c in
      rebuild (j - 1) c' (group :: acc)
  in
  (dp.(n - 1).(!final_center), rebuild (n - 1) !final_center [])

let optimal_groups problem ~data =
  let indices, vectors =
    referenced problem ~data (Problem.cost_vector problem)
  in
  match Array.length vectors with
  | 0 -> []
  | n ->
      let dist = Problem.distance problem in
      let ok =
        if Pim.Fault.has_node_faults (Problem.fault problem) then
          Some (Problem.rank_alive problem)
        else None
      in
      let _, ranges = optimal_ranges ?ok ~dist ~vectors ~n () in
      List.map
        (fun (lo, hi, _, center) ->
          { first = indices.(lo); last = indices.(hi); center })
        ranges

(* Desired (capacity-oblivious) trajectory: before the first group the datum
   already sits at that group's center (initial placement is free); inside a
   group and in the gap after it the datum stays at the group's center. *)
let desired_trajectory ~n_windows groups =
  match groups with
  | [] -> None
  | { center = c0; _ } :: _ ->
      (* Each group claims the suffix starting at its first window; later
         groups overwrite, so the datum stays at a group's center through
         the gap that follows it. *)
      let traj = Array.make n_windows c0 in
      List.iter
        (fun { first; center; _ } ->
          for w = first to n_windows - 1 do
            traj.(w) <- center
          done)
        groups;
      Some traj

let run_with_partitions problem ~partition_of =
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  (* The link-faulted context's vector pricing reads whole rows per
     datum; build them on the pool up front so the per-datum partition
     tasks below only read. Healthy and node-faulted contexts price from
     marginals alone and never build a row. *)
  if Pim.Fault.has_link_faults (Problem.fault problem) then
    Problem.prefetch_all problem;
  (* parallel phase: each datum's partition (and the cost vectors it pulls
     in) is independent of every other datum's *)
  let desired =
    Obs.Span.with_ ~name:"grouping.partitions" @@ fun () ->
    (* parking spot for never-referenced data: rank 0, or the lowest
       alive rank once faults kill it *)
    let home =
      let r = ref 0 in
      while not (Problem.rank_alive problem !r) do incr r done;
      !r
    in
    Engine.map ~jobs:(Problem.jobs problem) n_data (fun data ->
        (* the deadline poll: a warm session's partition may hit every
           cache it reads *)
        Cancel.check (Problem.cancel_token problem);
        match desired_trajectory ~n_windows (partition_of ~data) with
        | Some traj -> traj
        | None -> Array.make n_windows home)
  in
  let schedule =
    Schedule.create (Problem.mesh problem) ~n_windows ~n_data
  in
  match Problem.policy problem with
  | Problem.Unbounded ->
      Array.iteri
        (fun data traj ->
          Array.iteri
            (fun w rank -> Schedule.set_center schedule ~window:w ~data rank)
            traj)
        desired;
      schedule
  | Problem.Bounded _ ->
      Problem.check_feasible problem ~who:"Grouping.schedule";
      (* Per-window repair: place each datum on the nearest rank with
         room to its desired center, heavier data first (ties by datum)
         — serial, like every capacity-allocation loop. The mesh metric
         is walked shell by shell from each target's floor, reset per
         window (occupancy only grows within one); under link faults
         the BFS table's row is scanned. *)
      let current = Array.make n_data (-1) in
      let size = Pim.Mesh.size (Problem.mesh problem) in
      let floor = Array.make size 0 and probes = ref 0 in
      let place memory target =
        match Problem.relaxation problem with
        | Pathgraph.Layered.Table { dist; _ } ->
            Processor_list.place memory (Full dist.(target))
        | Axes _ -> Processor_list.place_near memory ~floor ~probes ~target
      in
      for w = 0 to n_windows - 1 do
        let window = Problem.window problem w in
        let memory = Problem.fresh_memory problem in
        Array.fill floor 0 size 0;
        let refs = Array.init n_data (Reftrace.Window.references window) in
        let order = Array.init n_data Fun.id in
        Array.stable_sort (fun a b -> Int.compare refs.(b) refs.(a)) order;
        Array.iter
          (fun data -> current.(data) <- place memory desired.(data).(w))
          order;
        Array.iteri
          (fun data rank ->
            Schedule.set_center schedule ~window:w ~data rank)
          current
      done;
      if !Obs.enabled then Obs.Metrics.add "grouping.repair_probes" !probes;
      schedule

let schedule ?(centers = `Local) problem =
  run_with_partitions problem ~partition_of:(fun ~data ->
      groups problem ~data ~centers)

let optimal_schedule problem =
  (* the exact DP prices from full cost vectors *)
  Problem.prefetch_all problem;
  run_with_partitions problem ~partition_of:(fun ~data ->
      optimal_groups problem ~data)

