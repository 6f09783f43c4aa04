(* The direct O(P · refs) evaluation of the cost model — the executable
   specification the separable kernel ([Sched.Cost]) and every arena fill
   in [Sched.Problem] are cross-checked against. Semantics, including
   tie order and error behaviour, are those of the [Sched.Cost]
   top-level functions. *)

let reference_cost mesh window ~data ~center =
  List.fold_left
    (fun acc (proc, count) ->
      acc + (count * Pim.Mesh.distance mesh center proc))
    0
    (Reftrace.Window.profile window data)

(* [cost_vector_over ~size ~dist] walks the profile under an arbitrary
   rank-to-rank distance (e.g. BFS distances around dead links). *)
let cost_vector_over ~size ~dist window ~data =
  let profile = Reftrace.Window.profile window data in
  Array.init size (fun center ->
      List.fold_left
        (fun acc (proc, count) -> acc + (count * dist center proc))
        0 profile)

let cost_vector mesh window ~data =
  cost_vector_over ~size:(Pim.Mesh.size mesh) ~dist:(Pim.Mesh.distance mesh)
    window ~data

let local_optimal_center mesh window ~data =
  let v = cost_vector mesh window ~data in
  let best = ref 0 in
  for center = 1 to Array.length v - 1 do
    if v.(center) < v.(!best) then best := center
  done;
  !best

let movement_cost mesh ~from_ ~to_ = Pim.Mesh.distance mesh from_ to_

let path_cost mesh pairs ~data =
  if pairs = [] then invalid_arg "Cost.path_cost: empty window list";
  let rec go prev acc = function
    | [] -> acc
    | (window, center) :: rest ->
        let refc = reference_cost mesh window ~data ~center in
        let move =
          match prev with
          | None -> 0
          | Some p -> movement_cost mesh ~from_:p ~to_:center
        in
        go (Some center) (acc + refc + move) rest
  in
  go None 0 pairs
