type row = {
  workload : string;
  algorithm : string;
  total : int;
  reference : int;
  movement : int;
  moves : int;
  improvement : float;
  gap : float;
}

let run ?(headroom = 2) ?(jobs = 1) mesh instances algorithms =
  List.concat_map
    (fun (workload, trace) ->
      let policy =
        Problem.headroom_policy ~headroom ~processors:(Pim.Mesh.size mesh)
          trace
      in
      (* one context per instance: the lower bound, the baseline and every
         algorithm share its cost-vector cache *)
      let problem = Problem.create ~policy ~jobs mesh trace in
      let bound = Bounds.lower_bound_in problem in
      let baseline =
        Schedule.total_cost (Scheduler.solve problem Scheduler.Row_wise) trace
      in
      List.map
        (fun algorithm ->
          let schedule = Scheduler.solve problem algorithm in
          let cost = Schedule.cost schedule trace in
          {
            workload;
            algorithm = Scheduler.name algorithm;
            total = cost.Schedule.total;
            reference = cost.Schedule.reference;
            movement = cost.Schedule.movement;
            moves = Schedule.moves schedule;
            improvement =
              Scheduler.improvement ~baseline ~cost:cost.Schedule.total;
            gap = Bounds.gap ~bound ~cost:cost.Schedule.total;
          })
        algorithms)
    instances

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "workload,algorithm,total,reference,movement,moves,improvement_pct,gap_pct\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%d,%d,%d,%.1f,%.1f\n" r.workload
           r.algorithm r.total r.reference r.movement r.moves r.improvement
           r.gap))
    rows;
  Buffer.contents buf
