(* The paper's per-datum GOMCDS cost-graph built straight from the mesh
   and trace: reference cost on nodes, migration on edges, vectors
   recomputed each call. [optimal_centers] solves it with the callback
   DP and [cost_graph] materializes it as an explicit DAG for
   [Shortest_path] — the oracles [Sched.Gomcds.schedule] is
   pinned against. *)

let problem mesh trace ~data =
  let windows = Array.of_list (Reftrace.Trace.windows trace) in
  let vectors =
    Array.map (fun w -> Sched.Cost.cost_vector mesh w ~data) windows
  in
  {
    Layered.n_layers = Array.length windows;
    width = Pim.Mesh.size mesh;
    enter_cost = (fun j -> vectors.(0).(j));
    step_cost =
      (fun ~layer j k -> Pim.Mesh.distance mesh j k + vectors.(layer).(k));
  }

let cost_problem = problem

let optimal_centers mesh trace ~data = Layered.solve (problem mesh trace ~data)

let cost_graph mesh trace ~data = Layered.to_digraph (problem mesh trace ~data)
