(* Heavy randomized cross-validation across feature combinations: torus x
   volumes x writes x every scheduler. Each property stacks several of the
   identities the individual suites check in isolation. *)

let meshes =
  [ Gen.mesh44; Pim.Mesh.square ~wrap:true 4; Pim.Mesh.create ~rows:2 ~cols:8 ]

(* A generator over mixed-kind, mixed-volume traces. *)
let rich_trace_gen mesh =
  let open QCheck.Gen in
  let m = Pim.Mesh.size mesh in
  int_range 2 8 >>= fun n_data ->
  int_range 1 5 >>= fun n_windows ->
  int_range 1 4 >>= fun volume ->
  let ref_gen =
    QCheck.Gen.quad
      (int_range 0 (n_data - 1))
      (int_range 0 (m - 1))
      (int_range 1 4) bool
  in
  list_size (int_range n_windows (3 * n_windows)) (pair (int_range 0 (n_windows - 1)) ref_gen)
  >>= fun refs ->
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc ~volume "A" ~rows:1 ~cols:n_data)
      []
  in
  let windows =
    Array.init n_windows (fun _ -> Reftrace.Window.create ~n_data)
  in
  (* guarantee non-empty windows *)
  Array.iter
    (fun w -> Reftrace.Window.add w ~data:0 ~proc:0 ~count:1)
    windows;
  List.iter
    (fun (w, (data, proc, count, is_write)) ->
      let kind =
        if is_write then Reftrace.Window.Write else Reftrace.Window.Read
      in
      Reftrace.Window.add ~kind windows.(w) ~data ~proc ~count)
    refs;
  return (Reftrace.Trace.create space (Array.to_list windows))

let rich_arbitrary mesh =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Reftrace.Trace.pp t)
    (rich_trace_gen mesh)

let capacity_for mesh t =
  Pim.Memory.capacity_for
    ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space t))
    ~mesh ~headroom:2

let prop_everything_agrees mesh =
  QCheck.Test.make
    ~name:
      (Format.asprintf "all invariants on %a (volumes+writes)" Pim.Mesh.pp
         mesh)
    ~count:40 (rich_arbitrary mesh)
    (fun t ->
      let capacity = capacity_for mesh t in
      let bound = Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t) in
      List.for_all
        (fun algo ->
          let s = Sched.Scheduler.solve (Gen.bounded capacity mesh t) algo in
          let total = Sched.Schedule.total_cost s t in
          (* 1. simulated traffic = analytic cost *)
          let simulated =
            (Pim.Simulator.run mesh (Sched.Schedule.to_rounds s t))
              .Pim.Simulator.total_cost
          in
          (* 2. never below the lower bound *)
          (* 3. capacity respected *)
          (* 4. timed makespan >= max per-link load *)
          let timed = Pim.Timed_simulator.run mesh (Sched.Schedule.to_rounds s t) in
          simulated = total && total >= bound
          && Option.is_none (Sched.Schedule.check_capacity s ~capacity)
          && timed.Pim.Timed_simulator.total_volume_hops = total)
        Sched.Scheduler.
          [ Row_wise; Cyclic; Scds; Lomcds; Gomcds; Lomcds_grouped;
            Gomcds_refined ])

let prop_serialization_composes mesh =
  QCheck.Test.make
    ~name:
      (Format.asprintf "trace+schedule serialization composes on %a"
         Pim.Mesh.pp mesh)
    ~count:30 (rich_arbitrary mesh)
    (fun t ->
      (* round-trip the trace, schedule the copy, round-trip the schedule,
         and price everything against the original *)
      let t' = Reftrace.Serial.of_string (Reftrace.Serial.to_string t) in
      let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t') in
      let s' =
        Sched.Schedule_serial.of_string (Sched.Schedule_serial.to_string s)
      in
      Sched.Schedule.total_cost s' t = Sched.Schedule.total_cost s t')

let prop_composition_reversal mesh =
  QCheck.Test.make
    ~name:
      (Format.asprintf "append/reverse keep costs consistent on %a"
         Pim.Mesh.pp mesh)
    ~count:30 (rich_arbitrary mesh)
    (fun t ->
      (* b5-style palindrome: scheduling t ++ reverse t costs the same as
         scheduling reverse t ++ t, by symmetry of the construction *)
      let ab = Reftrace.Trace.append t (Reftrace.Trace.reversed t) in
      let ba = Reftrace.Trace.append (Reftrace.Trace.reversed t) t in
      Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh ab)) ab
      = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh ba)) ba)

let suite =
  List.concat_map
    (fun mesh ->
      [
        Gen.to_alcotest (prop_everything_agrees mesh);
        Gen.to_alcotest (prop_serialization_composes mesh);
        Gen.to_alcotest (prop_composition_reversal mesh);
      ])
    meshes
