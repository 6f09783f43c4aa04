type round_report = {
  round : int;
  migration_cost : int;
  reference_cost : int;
  messages : int;
  latency_bound : int;
}

type report = {
  rounds : round_report list;
  total_migration : int;
  total_reference : int;
  total_cost : int;
  link_stats : Link_stats.t;
}

type round = {
  migrations : Router.message list;
  references : Router.message list;
}

let non_local msgs =
  List.filter (fun (m : Router.message) -> m.src <> m.dst && m.volume > 0) msgs

let run ?(fault = Fault.none) mesh rounds =
  Obs.Span.with_ ~name:"sim.run" @@ fun () ->
  let paths =
    if Fault.is_none fault then None else Some (Fault.Paths.create mesh fault)
  in
  let cumulative = Link_stats.create ~fault mesh in
  let run_round idx { migrations; references } =
    let per_round = Link_stats.create ~fault mesh in
    let route_batch msgs =
      List.fold_left
        (fun acc m ->
          let c = Router.route ?paths mesh per_round m in
          let c' = Router.route ?paths mesh cumulative m in
          assert (c = c');
          acc + c)
        0 msgs
    in
    let migration_cost = route_batch migrations in
    let reference_cost = route_batch references in
    let live = non_local (migrations @ references) in
    let max_distance =
      List.fold_left
        (fun acc (m : Router.message) ->
          max acc
            (match paths with
            | None -> Mesh.distance mesh m.src m.dst
            | Some o -> Fault.Paths.distance_exn o ~src:m.src ~dst:m.dst))
        0 live
    in
    let max_link =
      match Link_stats.max_link per_round with
      | None -> 0
      | Some (_, _, v) -> v
    in
    {
      round = idx;
      migration_cost;
      reference_cost;
      messages = List.length live;
      latency_bound = max max_distance max_link;
    }
  in
  let reports = List.mapi run_round rounds in
  let total_migration =
    List.fold_left (fun acc r -> acc + r.migration_cost) 0 reports
  in
  let total_reference =
    List.fold_left (fun acc r -> acc + r.reference_cost) 0 reports
  in
  {
    rounds = reports;
    total_migration;
    total_reference;
    total_cost = total_migration + total_reference;
    link_stats = cumulative;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>simulated: total=%d (migration=%d, reference=%d) over %d rounds;@ %a@]"
    r.total_cost r.total_migration r.total_reference (List.length r.rounds)
    Link_stats.pp r.link_stats
