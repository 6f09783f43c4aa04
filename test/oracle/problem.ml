(* A session's per-datum cost-graph in the oracle forms: [layer_vectors]
   spells the session's rows out as the dense DP's rows, [layered] is the
   callback problem over the session's distances ([Sched.Problem.distance]:
   the mesh metric, or the BFS table under link faults). Both force the
   datum's rows. *)

let layer_vectors t ~data =
  Array.map Pathgraph.Layered.to_array (Sched.Problem.layer_rows t ~data)

let layered t ~data =
  let rows = Sched.Problem.layer_rows t ~data in
  let entry layer j = Pathgraph.Layered.entry rows.(layer) j in
  {
    Layered.n_layers = Sched.Problem.n_windows t;
    width = Pim.Mesh.size (Sched.Problem.mesh t);
    enter_cost = entry 0;
    step_cost =
      (fun ~layer j k -> Sched.Problem.distance t j k + entry layer k);
  }
