(* A session's per-datum cost-graph in the oracle forms: [layer_vectors]
   copies the arena slab out as the dense DP's rows, [layered] is the
   callback problem over the session's distances ([Sched.Problem.distance]:
   the axis tables, or the BFS table under link faults). Both force the
   datum's arena rows. *)

let layer_vectors t ~data =
  let slab, offs = Sched.Problem.layer_slab t ~data in
  let size = Pim.Mesh.size (Sched.Problem.mesh t) in
  Array.init (Sched.Problem.n_windows t) (fun w ->
      Array.init size (fun i -> slab.{offs.(w) + i}))

let layered t ~data =
  let slab, offs = Sched.Problem.layer_slab t ~data in
  {
    Layered.n_layers = Sched.Problem.n_windows t;
    width = Pim.Mesh.size (Sched.Problem.mesh t);
    enter_cost = (fun j -> slab.{offs.(0) + j});
    step_cost =
      (fun ~layer j k -> Sched.Problem.distance t j k + slab.{offs.(layer) + k});
  }
