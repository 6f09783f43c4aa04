type center_policy = [ `Local | `Global ]
type group = { first : int; last : int; center : int }

let argmin v =
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) < v.(!best) then best := i
  done;
  !best

(* The greedy is generic in how a group's running cost state is represented:
   full cost vectors (the [`Naive] kernel's currency) or per-axis marginal
   pairs (the separable kernel's — summing two O(cols + rows) histograms
   prices a candidate merge without materializing the merged window's
   O(cols · rows) vector). [best] must return the {e lowest-rank} minimum
   center so both representations make identical greedy decisions. *)
type 'vec ops = {
  copy : 'vec -> 'vec;
  join : 'vec -> 'vec -> 'vec;  (* fresh sum; arguments untouched *)
  best : 'vec -> int * int;  (* (lowest-rank argmin center, its cost) *)
}

let vector_ops =
  {
    copy = Array.copy;
    join = (fun a b -> Array.init (Array.length a) (fun i -> a.(i) + b.(i)));
    best =
      (fun v ->
        let c = argmin v in
        (c, v.(c)));
  }

(* Vector ops whose [best] skips dead ranks (ties still break to the
   lowest alive rank) — the degraded-context currency: arena vectors are
   already fault-priced, only center choice needs the mask. *)
let masked_vector_ops alive =
  {
    vector_ops with
    best =
      (fun v ->
        let best = ref (-1) in
        for i = 0 to Array.length v - 1 do
          if alive i && (!best < 0 || v.(i) < v.(!best)) then best := i
        done;
        (!best, v.(!best)));
  }

(* The minimizers of cx(x) + cy(y) form a product set, so the lowest
   row-major rank among them is (lowest argmin cy, lowest argmin cx) —
   the same tie order as [vector_ops.best]'s ascending scan. *)
let marginal_ops ~wrap ~cols =
  let sum a b = Array.init (Array.length a) (fun i -> a.(i) + b.(i)) in
  {
    copy = (fun (mx, my) -> (Array.copy mx, Array.copy my));
    join = (fun (ax, ay) (bx, by) -> (sum ax bx, sum ay by));
    best =
      (fun (mx, my) ->
        let cx = Cost.axis_cost ~wrap mx and cy = Cost.axis_cost ~wrap my in
        let x = argmin cx and y = argmin cy in
        ((y * cols) + x, cx.(x) + cy.(y)));
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
  let start = ref 0 in
  let sumvec = ref (ops.copy items.(0)) in
  let finalize stop =
    let c, cost = ops.best !sumvec in
    fin_cost := !fin_cost + link_from_last c + cost;
    last_center := Some c;
    finalized := (!start, stop, ops.copy !sumvec, c) :: !finalized
  in
  let accepted = ref 0 in
  for j = 1 to n - 1 do
    let cur_center, cur_ref = ops.best !sumvec in
    let prev_total =
      !fin_cost + link_from_last cur_center + cur_ref
      + dist cur_center centers.(j)
      + tail.(j)
    in
    let candidate = ops.join !sumvec items.(j) in
    let cand_center, cand_ref = ops.best candidate in
    let next_link =
      if j + 1 < n then dist cand_center centers.(j + 1) + tail.(j + 1)
      else 0
    in
    let new_total =
      !fin_cost + link_from_last cand_center + cand_ref + next_link
    in
    if new_total <= prev_total then begin
      incr accepted;
      sumvec := candidate
    end
    else begin
      finalize (j - 1);
      start := j;
      sumvec := ops.copy items.(j)
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
   windows). [rows] holds one cost row per group, back to back. Healthy
   and node-faulted contexts relax on the mesh axis tables (dead ranks
   masked after relaxation); link faults break the separable metric, so
   they keep the callback DP over the BFS table. *)
let refine_centers problem rows =
  let size = Pim.Mesh.size (Problem.mesh problem) in
  let n = Bigarray.Array1.dim rows / size in
  let fault = Problem.fault problem in
  let masked = Pim.Fault.has_node_faults fault in
  let allowed ~layer:_ j = Problem.rank_alive problem j in
  let result =
    if Pim.Fault.has_link_faults fault then begin
      let p =
        {
          Pathgraph.Layered.n_layers = n;
          width = size;
          enter_cost = (fun j -> rows.{j});
          step_cost =
            (fun ~layer j k ->
              Problem.distance problem j k + rows.{(layer * size) + k});
        }
      in
      if masked then Pathgraph.Layered.solve_filtered p ~allowed
      else Some (Pathgraph.Layered.solve p)
    end
    else begin
      let xdist, ydist = Problem.axis_tables problem in
      if masked then
        Pathgraph.Layered.solve_axes_filtered ~xdist ~ydist ~vectors:rows
          ~width:size ~n_layers:n ~allowed ()
      else
        Some
          (Pathgraph.Layered.solve_axes ~xdist ~ydist ~vectors:rows
             ~width:size ~n_layers:n ())
    end
  in
  snd (Option.get result)

(* The [`Global] pass over greedy ranges: [fill state dst off] writes a
   group's cost row from its summed state. *)
let refine_ranges problem ~fill ranges =
  let size = Pim.Mesh.size (Problem.mesh problem) in
  let rows =
    Bigarray.Array1.create Bigarray.Int Bigarray.C_layout
      (List.length ranges * size)
  in
  List.iteri (fun i (_, _, v, _) -> fill v rows (i * size)) ranges;
  let centers = refine_centers problem rows in
  List.mapi (fun i (lo, hi, v, _) -> (lo, hi, v, centers.(i))) ranges

let fill_vector v (dst : Pathgraph.Layered.buffer) off =
  Array.iteri (fun k c -> dst.{off + k} <- c) v

(* Referenced-window subsequence of one datum: window indices plus their
   (cached) cost vectors. *)
let referenced_vectors problem ~data =
  let indices = ref [] in
  for w = Problem.n_windows problem - 1 downto 0 do
    if Reftrace.Window.references (Problem.window problem w) data > 0 then
      indices := w :: !indices
  done;
  let indices = Array.of_list !indices in
  let vectors =
    Array.map (fun w -> Problem.cost_vector problem ~window:w ~data) indices
  in
  (indices, vectors)

(* Referenced-window subsequence as (cached) marginal pairs — the separable
   kernel's pricing inputs. *)
let referenced_marginals problem ~data =
  let indices = ref [] in
  for w = Problem.n_windows problem - 1 downto 0 do
    if Reftrace.Window.references (Problem.window problem w) data > 0 then
      indices := w :: !indices
  done;
  let indices = Array.of_list !indices in
  let margs =
    Array.map (fun w -> Problem.marginals problem ~window:w ~data) indices
  in
  (indices, margs)

let to_groups indices ranges =
  List.map
    (fun (lo, hi, _, center) ->
      { first = indices.(lo); last = indices.(hi); center })
    ranges

let groups problem ~data ~centers =
  let dist = Problem.distance problem in
  if not (Pim.Fault.is_none (Problem.fault problem)) then begin
    (* Degraded context: always run the vector path — the arena vectors
       carry the fault-aware prices under either kernel (marginal pricing
       would ignore dead links), and the masked ops keep centers off dead
       ranks. *)
    let alive = Problem.rank_alive problem in
    let indices, vectors = referenced_vectors problem ~data in
    match Array.length vectors with
    | 0 -> []
    | n ->
        let ops = masked_vector_ops alive in
        let ranges = greedy_ranges ~ops ~dist ~items:vectors ~n in
        let ranges =
          match centers with
          | `Local -> ranges
          | `Global -> refine_ranges problem ~fill:fill_vector ranges
        in
        to_groups indices ranges
  end
  else
  match Problem.kernel problem with
  | `Naive -> (
      let indices, vectors = referenced_vectors problem ~data in
      match Array.length vectors with
      | 0 -> []
      | n ->
          let ranges =
            greedy_ranges ~ops:vector_ops ~dist ~items:vectors ~n
          in
          let ranges =
            match centers with
            | `Local -> ranges
            | `Global -> refine_ranges problem ~fill:fill_vector ranges
          in
          to_groups indices ranges)
  | `Separable -> (
      let mesh = Problem.mesh problem in
      let wrap = Pim.Mesh.wraps mesh
      and cols = Pim.Mesh.cols mesh
      and rows = Pim.Mesh.rows mesh in
      let indices, margs = referenced_marginals problem ~data in
      match Array.length margs with
      | 0 -> []
      | n ->
          let ranges =
            greedy_ranges ~ops:(marginal_ops ~wrap ~cols) ~dist ~items:margs
              ~n
          in
          let ranges =
            match centers with
            | `Local -> ranges
            | `Global ->
                refine_ranges problem ranges ~fill:(fun m dst off ->
                    Cost.fill_slab_of_marginals ~wrap ~cols ~rows m ~dst ~off)
          in
          to_groups indices ranges)

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
  let indices, vectors = referenced_vectors problem ~data in
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
  (* The vector-pricing paths (degraded context, [`Naive] kernel) read
     whole arena rows per datum; fill them window-major on the pool up
     front so the per-datum partition tasks below only read. The healthy
     separable path prices from marginals alone and never fills a row. *)
  if
    (not (Pim.Fault.is_none (Problem.fault problem)))
    || Problem.kernel problem = `Naive
  then Problem.prefetch_all problem;
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
      (* Per-window repair: place each datum as close as possible to its
         desired center, heavier data first — serial, like every
         capacity-allocation loop. *)
      let current = Array.make n_data (-1) in
      for w = 0 to n_windows - 1 do
        let window = Problem.window problem w in
        let memory = Problem.fresh_memory problem in
        let order =
          List.init n_data Fun.id
          |> List.sort (fun a b ->
                 let r d = Reftrace.Window.references window d in
                 let cmp = Int.compare (r b) (r a) in
                 if cmp <> 0 then cmp else Int.compare a b)
        in
        List.iter
          (fun data ->
            let target = desired.(data).(w) in
            let rank =
              Processor_list.assign memory
                (Problem.ranks_near problem ~target)
            in
            current.(data) <- rank)
          order;
        Array.iteri
          (fun data rank ->
            Schedule.set_center schedule ~window:w ~data rank)
          current
      done;
      schedule

let schedule ?(centers = `Local) problem =
  run_with_partitions problem ~partition_of:(fun ~data ->
      groups problem ~data ~centers)

let optimal_schedule problem =
  (* the exact DP prices from full cost vectors under every kernel *)
  Problem.prefetch_all problem;
  run_with_partitions problem ~partition_of:(fun ~data ->
      optimal_groups problem ~data)

