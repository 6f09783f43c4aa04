let local_centers mesh trace ~data =
  Reftrace.Trace.windows trace
  |> List.map (fun window ->
         if Reftrace.Window.references window data > 0 then
           Some (Cost.local_optimal_center mesh window ~data)
         else None)
  |> Array.of_list

(* First window in which each datum is referenced; [n_windows] if never. *)
let first_reference_window problem =
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  let first = Array.make n_data n_windows in
  for w = 0 to n_windows - 1 do
    List.iter
      (fun data -> if first.(data) > w then first.(data) <- w)
      (Reftrace.Window.referenced_data (Problem.window problem w))
  done;
  first

(* Vector-free unbounded walk: with infinite memories every rank has
   room, so [Processor_list.place] would take the row's lowest-rank
   argmin — every placement is an [optimal_center] probe and no cost
   vector is ever materialized. Placements are byte-identical to the
   bounded walk below with room everywhere (the argmin tie order matches
   the list head; pinned by test/test_fastpath.ml). *)
let schedule_unbounded problem schedule first =
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  (* parallel phase: every optimal center the serial walk reads *)
  Problem.prefetch_centers problem;
  let current =
    Array.init n_data (fun data ->
        if first.(data) >= n_windows then
          Problem.optimal_center problem ~window:n_windows ~data
        else Problem.optimal_center problem ~window:first.(data) ~data)
  in
  for w = 0 to n_windows - 1 do
    List.iter
      (fun data ->
        current.(data) <- Problem.optimal_center problem ~window:w ~data)
      (Reftrace.Window.referenced_data (Problem.window problem w));
    Array.iteri
      (fun data rank -> Schedule.set_center schedule ~window:w ~data rank)
      current
  done;
  schedule

let schedule_bounded problem schedule first =
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  (* parallel phase: every cost row the serial walk below reads *)
  Problem.prefetch_referenced problem;
  (* Initial placement: each datum goes where its first referencing window
     wants it; data never referenced fall back to the merged profile (all
     zeros -> lowest ranks, spread by capacity). Assignment order: earlier
     first window, then heavier in that window. *)
  let initial = Array.make n_data 0 in
  let init_memory = Problem.fresh_memory problem in
  let merged = Problem.merged problem in
  let init_order =
    List.init n_data Fun.id
    |> List.sort (fun a b ->
           let c = Int.compare first.(a) first.(b) in
           if c <> 0 then c
           else
             let window w d =
               if w >= n_windows then Reftrace.Window.references merged d
               else Reftrace.Window.references (Problem.window problem w) d
             in
             let c = Int.compare (window first.(b) b) (window first.(a) a) in
             if c <> 0 then c else Int.compare a b)
  in
  List.iter
    (fun data ->
      let window = min first.(data) n_windows in
      initial.(data) <-
        Processor_list.place init_memory (Problem.row problem ~window ~data))
    init_order;
  (* Walk the windows. [current.(d)] is where datum [d] sits entering the
     window; referenced data are reassigned to (as close as possible to)
     their local optimal center. *)
  let current = Array.copy initial in
  for w = 0 to n_windows - 1 do
    let window = Problem.window problem w in
    let memory = Problem.fresh_memory problem in
    Array.iter
      (fun rank ->
        let ok = Pim.Memory.allocate memory rank in
        assert ok)
      current;
    List.iter
      (fun data ->
        Pim.Memory.release memory current.(data);
        current.(data) <-
          Processor_list.place memory (Problem.row problem ~window:w ~data))
      (Ordering.by_window_references window);
    Array.iteri
      (fun data rank -> Schedule.set_center schedule ~window:w ~data rank)
      current
  done;
  schedule

let schedule problem =
  Problem.check_feasible problem ~who:"Lomcds.schedule";
  let sched =
    Schedule.create (Problem.mesh problem)
      ~n_windows:(Problem.n_windows problem)
      ~n_data:(Problem.n_data problem)
  in
  let first = first_reference_window problem in
  match Problem.policy problem with
  | Problem.Unbounded -> schedule_unbounded problem sched first
  | Problem.Bounded _ -> schedule_bounded problem sched first

