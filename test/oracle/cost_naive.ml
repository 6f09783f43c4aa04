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

let cost_vector mesh window ~data =
  let m = Pim.Mesh.size mesh in
  let v = Array.make m 0 in
  let profile = Reftrace.Window.profile window data in
  for center = 0 to m - 1 do
    v.(center) <-
      List.fold_left
        (fun acc (proc, count) ->
          acc + (count * Pim.Mesh.distance mesh center proc))
        0 profile
  done;
  v

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
