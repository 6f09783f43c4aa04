(* The vector-priced greedy of Algorithm 3, kept verbatim as the oracle
   the marginal-priced [Sched.Grouping.groups] is pinned against on
   healthy and node-faulted sessions: every group's running cost state
   is a full cost vector, summed entry by entry, and its center the
   vector's ascending argmin over alive ranks. [`Global] centers go
   through the production [Sched.Grouping.refine_centers]. Verbatim,
   instrumentation aside. *)

module Problem = Sched.Problem

(* lowest alive rank of least cost *)
let argmin alive v =
  let best = ref (-1) in
  for i = 0 to Array.length v - 1 do
    if alive i && (!best < 0 || v.(i) < v.(!best)) then best := i
  done;
  !best

type 'vec ops = {
  copy : 'vec -> 'vec;
  join : 'vec -> 'vec -> 'vec;  (* fresh sum; arguments untouched *)
  best : 'vec -> int * int;  (* (lowest-rank argmin center, its cost) *)
}

let vector_ops alive =
  {
    copy = Array.copy;
    join = (fun a b -> Array.init (Array.length a) (fun i -> a.(i) + b.(i)));
    best =
      (fun v ->
        let c = argmin alive v in
        (c, v.(c)));
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
    if new_total <= prev_total then sumvec := candidate
    else begin
      finalize (j - 1);
      start := j;
      sumvec := ops.copy items.(j)
    end
  done;
  finalize (n - 1);
  List.rev !finalized

(* The [`Global] pass over greedy ranges: each group's summed vector is
   its full cost row. *)
let refine_ranges problem ranges =
  let rows =
    Array.of_list (List.map (fun (_, _, v, _) -> Problem.Full v) ranges)
  in
  let centers = Sched.Grouping.refine_centers problem rows in
  List.mapi (fun i (lo, hi, v, _) -> (lo, hi, v, centers.(i))) ranges

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

let to_groups indices ranges =
  List.map
    (fun (lo, hi, _, center) ->
      { Sched.Grouping.first = indices.(lo); last = indices.(hi); center })
    ranges

let groups problem ~data ~centers =
  let dist = Problem.distance problem in
  let indices, vectors = referenced_vectors problem ~data in
  match Array.length vectors with
  | 0 -> []
  | n ->
      let ops = vector_ops (Problem.rank_alive problem) in
      let ranges = greedy_ranges ~ops ~dist ~items:vectors ~n in
      let ranges =
        match centers with
        | `Local -> ranges
        | `Global -> refine_ranges problem ranges
      in
      to_groups indices ranges
