(* Replication study: relaxing the paper's "one copy of data" rule.

     dune exec examples/replication_study.exe

   Matrix squaring broadcasts row k and column k of A to every processor in
   window k — a single copy of each pivot element is a bottleneck no
   placement can fix. Read replication shatters that floor. Coherence is
   write-invalidate, so the written output C never replicates; compare LU,
   where almost everything is written every window and replication barely
   helps. *)

let mesh = Pim.Mesh.square 4

let study name trace =
  let problem = Sched.Problem.create mesh trace in
  let bound = Sched.Bounds.lower_bound_in problem in
  Printf.printf "\n%s: single-copy lower bound = %d\n" name bound;
  Printf.printf "%10s %10s %12s %10s %10s\n" "copies" "total" "reads"
    "creation" "movement";
  List.iter
    (fun k ->
      let r = Sched.Replicated.schedule ~max_copies:k problem in
      let c = Sched.Replicated.cost r mesh trace in
      Printf.printf "%10d %10d %12d %10d %10d%s\n" k c.Sched.Replicated.total
        c.Sched.Replicated.reads c.Sched.Replicated.creation
        c.Sched.Replicated.primary_movement
        (if c.Sched.Replicated.total < bound then
           "   <- beats the one-copy floor"
         else "");
      (* the simulator measures exactly the analytic cost *)
      let measured =
        (Pim.Simulator.run mesh (Sched.Replicated.to_rounds r mesh trace))
          .Pim.Simulator.total_cost
      in
      assert (measured = c.Sched.Replicated.total))
    [ 1; 2; 4; 8 ]

let () =
  let n = 12 in
  study "matrix squaring (A read-only, C written)"
    (Workloads.Matmul.trace ~n mesh);
  study "LU factorization (matrix written every window)"
    (Workloads.Lu.trace ~n mesh);
  print_endline
    "\nwrite-invalidate coherence is why LU barely moves: a datum written\n\
     in a window is pinned to its primary copy there, and LU writes the\n\
     whole trailing submatrix every elimination step.";

  (* peek at one pivot element's copy sets across windows *)
  let trace = Workloads.Matmul.trace ~n mesh in
  let space = Reftrace.Trace.space trace in
  let a03 = Reftrace.Data_space.id space ~array_name:"A" ~row:0 ~col:3 in
  let r =
    Sched.Replicated.schedule ~max_copies:4 (Sched.Problem.create mesh trace)
  in
  Printf.printf "\ncopy sets of A(0,3) (hot in window 3):\n";
  for w = 0 to min 5 (Sched.Replicated.n_windows r - 1) do
    Printf.printf "  window %d: %s\n" w
      (String.concat " "
         (List.map
            (fun rank ->
              Pim.Coord.to_string (Pim.Mesh.coord_of_rank mesh rank))
            (Sched.Replicated.copies r ~window:w ~data:a03)))
  done
