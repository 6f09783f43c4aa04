type t = Array_group.t Sched.Schedule.plan

type cost_breakdown = Sched.Schedule.cost_breakdown = {
  reference : int;
  movement : int;
  total : int;
}

let create group = Sched.Schedule.create_on group ~size:(Array_group.size group)
let group = Sched.Schedule.host
let moves = Sched.Schedule.moves

let array_moves t =
  let member w d =
    Array_group.member_of_rank (group t)
      (Sched.Schedule.center t ~window:w ~data:d)
  in
  let count = ref 0 in
  for w = 1 to Sched.Schedule.n_windows t - 1 do
    for d = 0 to Sched.Schedule.n_data t - 1 do
      if member w d <> member (w - 1) d then incr count
    done
  done;
  !count

let cost t trace =
  Sched.Schedule.weighted_cost ~distance:(Array_group.distance (group t)) t
    trace

let of_mesh_schedule group sched =
  match Array_group.degenerate group with
  | None -> invalid_arg "Group_schedule.of_mesh_schedule: group is not 1-member"
  | Some _ ->
      Sched.Schedule.with_host sched group ~size:(Array_group.size group)

let to_mesh_schedule t =
  Option.map
    (fun mesh -> Sched.Schedule.with_host t mesh ~size:(Pim.Mesh.size mesh))
    (Array_group.degenerate (group t))

let equal a b =
  Array_group.equal (group a) (group b) && Sched.Schedule.equal a b

let pp fmt t =
  Format.fprintf fmt "group-schedule(%a, %d windows x %d data, %d moves/%d fabric)"
    Array_group.pp (group t) (Sched.Schedule.n_windows t)
    (Sched.Schedule.n_data t) (moves t) (array_moves t)
