(* The alive mask as one admit row over global ranks, or [None] when
   every rank of the group is alive. *)
let alive_admit gp =
  let group = Group_problem.group gp in
  let row =
    Bytes.init (Array_group.size group) (fun g ->
        if Group_problem.rank_alive gp g then '\001' else '\000')
  in
  if Bytes.contains row '\000' then Some (fun _ -> row) else None

(* Per-datum migration DP over the whole group: member blocks read their
   cached rows in place, the fabric is one scalar edge per member pair,
   and the cross-array reference cost of window w enters as the
   per-member constant Σ_{j≠i} W(w,d,j)·move_cost(j,i). Returns the raw
   (volume-unweighted) per-datum optima — scaling by a datum's volume
   multiplies every term alike, so the witness trajectory is unchanged. *)
let dp_all gp =
  let group = Group_problem.group gp in
  let nm = Group_problem.n_members gp in
  let nd = Group_problem.n_data gp in
  let nw = Group_problem.n_windows gp in
  let relaxations =
    Array.init nm (fun m -> Sched.Problem.relaxation (Group_problem.sub gp m))
  in
  let admit = alive_admit gp in
  let move_cost i j = Array_group.move_cost group i j in
  Sched.Engine.map ~jobs:(Group_problem.jobs gp) nd (fun d ->
      let blocks =
        Array.init nm (fun m ->
            {
              Pathgraph.Layered.relaxation = relaxations.(m);
              rows = Sched.Problem.layer_rows (Group_problem.sub gp m) ~data:d;
            })
      in
      match
        Pathgraph.Layered.solve ~move_cost
          ~consts:(fun ~layer ~member ->
            Group_problem.cross_cost gp ~window:layer ~data:d ~member)
          ~n_layers:nw ?admit blocks
      with
      | Some r -> r
      | None -> assert false (* >= 1 alive rank in an alive member *))

let migration_dp gp =
  let results = dp_all gp in
  let plan =
    Group_schedule.create (Group_problem.group gp)
      ~n_windows:(Group_problem.n_windows gp)
      ~n_data:(Group_problem.n_data gp)
  in
  Array.iteri
    (fun d (_cost, centers) ->
      Array.iteri
        (fun w g -> Sched.Schedule.set_center plan ~window:w ~data:d g)
        centers)
    results;
  if !Obs.enabled then begin
    Obs.Metrics.add "multi.migration_solves" (Array.length results);
    Obs.Metrics.add "multi.array_migrations" (Group_schedule.array_moves plan)
  end;
  plan

let lower_bound gp =
  if Group_problem.has_member_link_faults gp then None
  else begin
    let space = Reftrace.Trace.space (Group_problem.trace gp) in
    let results = dp_all gp in
    let total = ref 0 in
    Array.iteri
      (fun d (cost, _) ->
        total := !total + (Reftrace.Data_space.volume_of space d * cost))
      results;
    Some !total
  end

(* Stage two of the static path: run [algo] inside each member on the
   subset trace of its assigned data (the sessions are built once per
   problem, {!Group_problem.stage_two}), then lift local centers to
   global ranks. *)
let static_two_level gp algo =
  let plan =
    Group_schedule.create (Group_problem.group gp)
      ~n_windows:(Group_problem.n_windows gp)
      ~n_data:(Group_problem.n_data gp)
  in
  Array.iteri
    (fun m -> function
      | None -> ()
      | Some (ids, problem) ->
          let sched = Sched.Scheduler.solve problem algo in
          let base = Array_group.base (Group_problem.group gp) m in
          for w = 0 to Group_problem.n_windows gp - 1 do
            Array.iteri
              (fun idx d ->
                Sched.Schedule.set_center plan ~window:w ~data:d
                  (base + Sched.Schedule.center sched ~window:w ~data:idx))
              ids
          done)
    (Group_problem.stage_two gp);
  if !Obs.enabled then begin
    Obs.Metrics.incr "multi.static_solves";
    Obs.Metrics.add "multi.array_migrations" (Group_schedule.array_moves plan)
  end;
  plan

let solve gp algo =
  Obs.Span.with_ ~name:"multi.solve" @@ fun () ->
  match Group_problem.degenerate gp with
  | Some sub ->
      if !Obs.enabled then Obs.Metrics.incr "multi.degenerate_delegations";
      Group_schedule.of_mesh_schedule (Group_problem.group gp)
        (Sched.Scheduler.solve sub algo)
  | None -> (
      match (algo, Group_problem.policy gp) with
      | Sched.Scheduler.Gomcds, Sched.Problem.Unbounded
        when not (Group_problem.has_member_link_faults gp) ->
          migration_dp gp
      | _ -> static_two_level gp algo)

let evaluate gp algo =
  let plan = solve gp algo in
  (plan, Group_schedule.cost plan (Group_problem.trace gp))
