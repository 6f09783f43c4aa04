(* The full rank-to-rank distance matrix of a mesh:
   [(table m).(a).(b) = Pim.Mesh.distance m a b]. No scheduling path
   reads it — distance probes use the two per-axis tables and the
   layered DP relaxes on them directly ([Pathgraph.Layered.Axes]) — so
   it lives with the oracles that price moves through a dense table.
   Costs [size m]² words. *)
let table m =
  let n = Pim.Mesh.size m in
  Array.init n (fun a -> Array.init n (fun b -> Pim.Mesh.distance m a b))
