let pow base exp =
  let rec go acc = function 0 -> acc | e -> go (acc * base) (e - 1) in
  go 1 exp

let optimal_cost_of ~vectors ~dist ~m ~n =
  if pow m n > 10_000_000 then
    invalid_arg "Brute_force.optimal_cost: instance too large";
  let best_cost = ref max_int in
  let best_seq = ref [||] in
  let seq = Array.make n 0 in
  let rec explore w acc =
    if acc >= !best_cost then () (* prune: costs only grow *)
    else if w = n then begin
      best_cost := acc;
      best_seq := Array.copy seq
    end
    else
      for rank = 0 to m - 1 do
        seq.(w) <- rank;
        let move = if w = 0 then 0 else dist seq.(w - 1) rank in
        explore (w + 1) (acc + move + vectors.(w).(rank))
      done
  in
  explore 0 0;
  (!best_cost, !best_seq)

let optimal_cost mesh trace ~data =
  let windows = Array.of_list (Reftrace.Trace.windows trace) in
  let vectors = Array.map (fun w -> Cost.cost_vector mesh w ~data) windows in
  optimal_cost_of ~vectors ~dist:(Pim.Mesh.distance mesh)
    ~m:(Pim.Mesh.size mesh) ~n:(Array.length windows)

let optimal_cost_in problem ~data =
  let n = Problem.n_windows problem in
  let vectors =
    Array.init n (fun w -> Problem.cost_vector problem ~window:w ~data)
  in
  optimal_cost_of ~vectors
    ~dist:(Problem.distance problem)
    ~m:(Pim.Mesh.size (Problem.mesh problem))
    ~n

let optimal_static_cost mesh trace ~data =
  let merged = Reftrace.Trace.merged trace in
  let v = Cost.cost_vector mesh merged ~data in
  let best = ref 0 in
  for rank = 1 to Array.length v - 1 do
    if v.(rank) < v.(!best) then best := rank
  done;
  (v.(!best), !best)

let total_optimal_cost_in problem =
  let space = Problem.space problem in
  (* per-datum enumerations are independent: fan out, merge by index *)
  let costs =
    Engine.map
      ~jobs:(Problem.jobs problem)
      (Problem.n_data problem)
      (fun data ->
        Reftrace.Data_space.volume_of space data
        * fst (optimal_cost_in problem ~data))
  in
  Array.fold_left ( + ) 0 costs
