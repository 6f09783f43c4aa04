let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let torus = Pim.Mesh.square ~wrap:true 4
let mesh = Gen.mesh44

let rank m x y = Pim.Mesh.rank_of_coord m (Pim.Coord.make ~x ~y)

let test_wraps_flag () =
  check_bool "torus" true (Pim.Mesh.wraps torus);
  check_bool "mesh" false (Pim.Mesh.wraps mesh)

let test_wrap_distance () =
  (* opposite corners are 2 hops apart on a 4x4 torus *)
  check_int "corner to corner" 2
    (Pim.Mesh.distance torus (rank torus 0 0) (rank torus 3 3));
  check_int "half way is the diameter" 4
    (Pim.Mesh.distance torus (rank torus 0 0) (rank torus 2 2));
  (* torus distance never exceeds mesh distance *)
  Pim.Mesh.iter_ranks torus (fun a ->
      Pim.Mesh.iter_ranks torus (fun b ->
          check_bool "never longer" true
            (Pim.Mesh.distance torus a b <= Pim.Mesh.distance mesh a b)))

let test_wrap_route_goes_short_way () =
  let path =
    Pim.Mesh.xy_route torus ~src:(rank torus 0 0) ~dst:(rank torus 3 0)
  in
  Alcotest.(check (list int))
    "one wrap hop"
    [ rank torus 0 0; rank torus 3 0 ]
    path

let test_wrap_neighbours () =
  let ns = Pim.Mesh.neighbours torus (rank torus 0 0) in
  check_int "four neighbours at a corner" 4 (List.length ns);
  check_bool "wrap west" true (List.mem (rank torus 3 0) ns);
  check_bool "wrap north" true (List.mem (rank torus 0 3) ns)

let test_wrap_links_count () =
  (* every node has degree 4 on a 4x4 torus: 16 * 4 directed links *)
  check_int "links" 64 (List.length (Pim.Mesh.links torus))

let test_degenerate_two_wide () =
  let t2 = Pim.Mesh.square ~wrap:true 2 in
  (* both directions coincide: degree 2, no duplicate neighbours *)
  check_int "degree 2" 2 (List.length (Pim.Mesh.neighbours t2 0));
  check_int "distance" 2 (Pim.Mesh.distance t2 0 3)

let prop_route_length_is_distance =
  QCheck.Test.make ~name:"torus route length = distance + 1" ~count:300
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (src, dst) ->
      List.length (Pim.Mesh.xy_route torus ~src ~dst)
      = Pim.Mesh.distance torus src dst + 1)

let prop_route_steps_are_links =
  QCheck.Test.make ~name:"torus route steps are links" ~count:300
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (src, dst) ->
      let rec ok = function
        | a :: (b :: _ as rest) ->
            List.mem b (Pim.Mesh.neighbours torus a) && ok rest
        | [ _ ] | [] -> true
      in
      ok (Pim.Mesh.xy_route torus ~src ~dst))

let prop_torus_triangle_inequality =
  QCheck.Test.make ~name:"torus distance triangle inequality" ~count:300
    QCheck.(triple (int_bound 15) (int_bound 15) (int_bound 15))
    (fun (a, b, c) ->
      Pim.Mesh.distance torus a c
      <= Pim.Mesh.distance torus a b + Pim.Mesh.distance torus b c)

let prop_schedulers_work_on_torus =
  let arb =
    Gen.trace_arbitrary ~mesh:torus ~max_data:6 ~max_windows:4 ~max_count:4 ()
  in
  QCheck.Test.make ~name:"scheduler hierarchy holds on the torus" ~count:50
    arb (fun t ->
      let total a =
        Sched.Schedule.total_cost
          (Sched.Scheduler.solve (Sched.Problem.create torus t) a)
          t
      in
      let g = total Sched.Scheduler.Gomcds in
      g <= total Sched.Scheduler.Lomcds && g <= total Sched.Scheduler.Scds)

let prop_torus_simulation_matches_analytic =
  let arb =
    Gen.trace_arbitrary ~mesh:torus ~max_data:5 ~max_windows:4 ~max_count:3 ()
  in
  QCheck.Test.make ~name:"torus simulated cost = analytic cost" ~count:50 arb
    (fun t ->
      let s =
        Sched.Scheduler.solve (Sched.Problem.create torus t)
          Sched.Scheduler.Gomcds
      in
      let report =
        Pim.Simulator.run torus (Sched.Schedule.to_rounds s t)
      in
      report.Pim.Simulator.total_cost = Sched.Schedule.total_cost s t)

let test_torus_never_costs_more_than_mesh () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let on m = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create m t)) t in
  check_bool "wrap links can only help" true (on torus <= on mesh)

let suite =
  [
    Gen.case "wraps flag" test_wraps_flag;
    Gen.case "wrap distance" test_wrap_distance;
    Gen.case "route goes short way" test_wrap_route_goes_short_way;
    Gen.case "wrap neighbours" test_wrap_neighbours;
    Gen.case "wrap links count" test_wrap_links_count;
    Gen.case "degenerate 2-wide torus" test_degenerate_two_wide;
    Gen.to_alcotest prop_route_length_is_distance;
    Gen.to_alcotest prop_route_steps_are_links;
    Gen.to_alcotest prop_torus_triangle_inequality;
    Gen.to_alcotest prop_schedulers_work_on_torus;
    Gen.to_alcotest prop_torus_simulation_matches_analytic;
    Gen.case "torus <= mesh cost" test_torus_never_costs_more_than_mesh;
  ]
