type stats = {
  iterations : int;
  accepted : int;
  initial_cost : int;
  final_cost : int;
}

(* Private xorshift so the global Random state is untouched. *)
let make_rng seed =
  let state = ref (if seed = 0 then 0xBEEF else seed) in
  fun bound ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state mod bound

let anneal ?(seed = 0xBEEF) ?(iterations = 50_000) ?initial problem =
  if iterations < 0 then
    invalid_arg "Annealing.anneal: iterations must be non-negative";
  let mesh = Problem.mesh problem in
  let trace = Problem.trace problem in
  let space = Problem.space problem in
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  let m = Pim.Mesh.size mesh in
  let sched =
    match initial with
    | Some s ->
        if Schedule.n_data s <> n_data || Schedule.n_windows s <> n_windows
        then invalid_arg "Annealing.anneal: initial schedule shape mismatch";
        Schedule.copy s
    | None ->
        Baseline.schedule (Baseline.row_wise mesh space) mesh trace
  in
  let capacity = Problem.capacity problem in
  (match capacity with
  | Some c -> (
      match Schedule.check_capacity sched ~capacity:c with
      | Some _ ->
          invalid_arg "Annealing.anneal: initial schedule violates capacity"
      | None -> ())
  | None -> ());
  (* every move probes two row entries: build every row on the pool
     once, then the search loop only reads *)
  Problem.prefetch_all problem;
  (* the freshly built rows, read directly: the delta evaluator's two
     reads per probe pay no cache lookup *)
  let rows =
    Array.init n_windows (fun w ->
        Array.init n_data (fun d -> Problem.row problem ~window:w ~data:d))
  in
  let entry w d rank = Pathgraph.Layered.entry rows.(w).(d) rank in
  let volume = Array.init n_data (Reftrace.Data_space.volume_of space) in
  let loads = Schedule.loads sched in
  let rng = make_rng seed in
  let dist = Problem.distance problem in
  (* weighted delta of relocating datum d in window w from r to r' —
     reference-cost diffs are two row reads ([Problem.cost_entry]
     equals [Cost.reference_cost] entry-for-entry) *)
  let delta w d r r' =
    let refs = entry w d r' - entry w d r in
    let edge w' =
      let other = Schedule.center sched ~window:w' ~data:d in
      dist r' other - dist r other
    in
    let moves =
      (if w > 0 then edge (w - 1) else 0)
      + if w < n_windows - 1 then edge (w + 1) else 0
    in
    volume.(d) * (refs + moves)
  in
  (* Fault-aware pricing: on a degraded context the healthy
     Schedule.total_cost no longer matches the row entries the deltas
     read, so total from the context instead (identical when healthy, but
     the healthy path keeps the exact historical call). *)
  let total_now () =
    if Pim.Fault.is_none (Problem.fault problem) then
      Schedule.total_cost sched trace
    else begin
      let sum = ref 0 in
      for d = 0 to n_data - 1 do
        sum :=
          !sum
          + volume.(d)
            * Problem.trajectory_cost problem ~data:d
                (Schedule.centers_of_data sched ~data:d)
      done;
      !sum
    end
  in
  let initial_cost = total_now () in
  let current = ref initial_cost in
  let accepted = ref 0 in
  (* geometric cooling from a temperature comparable to typical deltas *)
  let temp = ref (float_of_int (max 1 (initial_cost / max 1 (n_data * 4)))) in
  let cooling =
    if iterations = 0 then 1. else Float.exp (Float.log 0.001 /. float_of_int iterations)
  in
  for _ = 1 to iterations do
    let w = rng n_windows and d = rng n_data and r' = rng m in
    let r = Schedule.center sched ~window:w ~data:d in
    let room =
      match capacity with None -> true | Some c -> loads.(w).(r') < c
    in
    (* dead ranks are never proposed; the rng draw count is unchanged, so
       Fault.none runs replay the exact historical trajectory *)
    if r' <> r && room && Problem.rank_alive problem r' then begin
      let dl = delta w d r r' in
      let accept =
        dl <= 0
        ||
        let u = float_of_int (1 + rng 1_000_000) /. 1_000_000. in
        u < Float.exp (-.float_of_int dl /. !temp)
      in
      if accept then begin
        Schedule.set_center sched ~window:w ~data:d r';
        loads.(w).(r) <- loads.(w).(r) - 1;
        loads.(w).(r') <- loads.(w).(r') + 1;
        current := !current + dl;
        incr accepted
      end
    end;
    temp := Float.max 1e-6 (!temp *. cooling)
  done;
  assert (!current = total_now ());
  ( sched,
    {
      iterations;
      accepted = !accepted;
      initial_cost;
      final_cost = !current;
    } )
