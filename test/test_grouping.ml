let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let group_t =
  Alcotest.testable
    (fun fmt (g : Sched.Grouping.group) ->
      Format.fprintf fmt "[%d..%d]@%d" g.Sched.Grouping.first
        g.Sched.Grouping.last g.Sched.Grouping.center)
    ( = )

let test_identical_windows_merge () =
  (* same profile every window: one big group, no movement *)
  let spec = [ (0, 6, 2); (0, 9, 1) ] in
  let t = Gen.trace mesh ~n_data:1 [ spec; spec; spec; spec ] in
  let groups = Sched.Grouping.groups (Sched.Problem.create mesh t) ~data:0 ~centers:`Local in
  check_int "single group" 1 (List.length groups);
  let g = List.hd groups in
  check_int "covers all" 0 g.Sched.Grouping.first;
  check_int "to the end" 3 g.Sched.Grouping.last

let test_opposed_windows_stay_apart () =
  (* strong opposite pulls: grouping would force one bad center *)
  let t =
    Gen.trace mesh ~n_data:1 [ [ (0, 0, 9) ]; [ (0, 15, 9) ] ]
  in
  let groups = Sched.Grouping.groups (Sched.Problem.create mesh t) ~data:0 ~centers:`Local in
  check_int "two groups" 2 (List.length groups);
  Alcotest.(check (list group_t))
    "each window its own center"
    [
      { Sched.Grouping.first = 0; last = 0; center = 0 };
      { Sched.Grouping.first = 1; last = 1; center = 15 };
    ]
    groups

let test_unreferenced_datum_empty_partition () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 3, 1) ] ] in
  Alcotest.(check (list group_t))
    "empty" []
    (Sched.Grouping.groups (Sched.Problem.create mesh t) ~data:1 ~centers:`Local)

let test_gap_windows_excluded_from_groups () =
  let t =
    Gen.trace mesh ~n_data:2
      [ [ (0, 4, 2) ]; [ (1, 0, 1) ]; [ (0, 4, 2) ] ]
  in
  let groups = Sched.Grouping.groups (Sched.Problem.create mesh t) ~data:0 ~centers:`Local in
  (* identical profiles with a gap: still groupable into one *)
  check_int "one group" 1 (List.length groups);
  let g = List.hd groups in
  check_int "spans the gap" 2 g.Sched.Grouping.last;
  check_int "center" 4 g.Sched.Grouping.center

let test_schedule_keeps_datum_during_gap () =
  let t =
    Gen.trace mesh ~n_data:2
      [ [ (0, 4, 2) ]; [ (1, 0, 1) ]; [ (0, 4, 2) ] ]
  in
  let s = Sched.Grouping.schedule (Sched.Problem.create mesh t) in
  Alcotest.(check (list int))
    "no movement" [ 4; 4; 4 ]
    (Array.to_list (Sched.Schedule.centers_of_data s ~data:0))

(* The bounded repair places a window's data heaviest first, ties by
   datum, each on the nearest rank with room to its center. Every datum
   wants rank 0 of a 2x2 mesh whose ranks hold one datum each, so the
   order is the placement: datum 1 takes rank 0, the tied data 2 and 3
   the two ranks one hop away in datum order, datum 0 the far corner,
   whether the heaviest total is small or far above the others. *)
let test_repair_heaviest_first () =
  let mesh = Gen.mesh22 in
  List.iter
    (fun heavy ->
      let t =
        Gen.trace mesh ~n_data:4
          [ [ (0, 0, 1); (1, 0, heavy); (2, 0, 7); (3, 0, 7) ] ]
      in
      let s = Sched.Grouping.schedule (Gen.bounded 1 mesh t) in
      Alcotest.(check (list int))
        (Printf.sprintf "heaviest %d" heavy)
        [ 3; 0; 1; 2 ]
        (List.init 4 (fun data ->
             Sched.Schedule.center s ~window:0 ~data)))
    [ 9; 5000 ]

let prop_never_worse_than_lomcds =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:6 ~max_count:4 () in
  QCheck.Test.make
    ~name:"grouping (unbounded) never costs more than ungrouped LOMCDS"
    ~count:100 arb (fun t ->
      let grouped = Sched.Grouping.schedule (Sched.Problem.create mesh t) in
      let plain = Sched.Lomcds.schedule (Sched.Problem.create mesh t) in
      Sched.Schedule.total_cost grouped t <= Sched.Schedule.total_cost plain t)

let prop_global_centers_never_worse_than_local =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:6 ~max_count:4 () in
  QCheck.Test.make
    ~name:"grouping with global centers <= grouping with local centers"
    ~count:100 arb (fun t ->
      let local = Sched.Grouping.schedule ~centers:`Local (Sched.Problem.create mesh t) in
      let global = Sched.Grouping.schedule ~centers:`Global (Sched.Problem.create mesh t) in
      Sched.Schedule.total_cost global t <= Sched.Schedule.total_cost local t)

let prop_groups_partition_referenced_windows =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:6 ~max_count:4 () in
  QCheck.Test.make
    ~name:"groups are ordered, disjoint, and bounded by referenced windows"
    ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let groups = Sched.Grouping.groups (Sched.Problem.create mesh t) ~data ~centers:`Local in
        let rec check prev = function
          | [] -> ()
          | g :: rest ->
              if g.Sched.Grouping.first <= prev then ok := false;
              if g.Sched.Grouping.last < g.Sched.Grouping.first then
                ok := false;
              check g.Sched.Grouping.last rest
        in
        check (-1) groups;
        (* first and last window of every group must reference the datum *)
        List.iter
          (fun g ->
            let refs w =
              Reftrace.Window.references (Reftrace.Trace.window t w) data
            in
            if refs g.Sched.Grouping.first = 0 || refs g.Sched.Grouping.last = 0
            then ok := false)
          groups
      done;
      !ok)

let prop_capacity_never_violated =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make ~name:"grouping respects capacity" ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s = Sched.Grouping.schedule (Gen.bounded capacity mesh t) in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

(* Golden plans of the grouped schedulers and the portfolio that runs
   them, on LU 16 over a 16x16 mesh and torus under the paper's headroom-2
   bound: healthy, with seeded node faults, and with seeded node plus
   link faults. The plan text is pinned by its MD5 and the served total
   exactly, so a change to how the bounded repair or the grouping greedy
   picks ranks cannot move a single placement unnoticed. *)
let golden_plans =
  [
    ("mesh", "none", "lomcds-grouped",
      "23c6324485db867474439cd401d1bda8", 11878);
    ("mesh", "none", "gomcds-grouped",
      "3cfb56f254fac5b38f3e2b4bc6d456fb", 11848);
    ("mesh", "none", "best-refined",
      "66c00fcd8ff64bec27ac51e87f0f556d", 9808);
    ("mesh", "nodes", "lomcds-grouped",
      "fb94ed210824a66bd111d8ec7be54448", 12404);
    ("mesh", "nodes", "gomcds-grouped",
      "01543008bcca56b76b6a6fb1ad63edc8", 12350);
    ("mesh", "nodes", "best-refined",
      "bed60ee64df9d6cf4ca6d60bbb2757fb", 9952);
    ("mesh", "links", "lomcds-grouped",
      "ea3bebd77993dc6cac29b1f18587e09e", 12365);
    ("mesh", "links", "gomcds-grouped",
      "2525dbced63940b6ed75ea3f29a1f104", 12368);
    ("mesh", "links", "best-refined",
      "7a2c89eaaecb09a8c212a4e0f87c0717", 10012);
    ("torus", "none", "lomcds-grouped",
      "35be6714354c66e57c9c65f7b98b163b", 10942);
    ("torus", "none", "gomcds-grouped",
      "1b6185fa6dfc61af59fffd1fce6fe4b6", 10945);
    ("torus", "none", "best-refined",
      "e1f7cfea23dce1ef8e841fb6a1d26d45", 9678);
    ("torus", "nodes", "lomcds-grouped",
      "4d6a9e7e1689232622a037838cdf19b7", 11231);
    ("torus", "nodes", "gomcds-grouped",
      "49c5d03d601e25ef56e77703ad8a1a85", 11166);
    ("torus", "nodes", "best-refined",
      "b8c67bd8c73f57330071b646f81b69a1", 9792);
    ("torus", "links", "lomcds-grouped",
      "ffd3c93e1f478b0d9ac53aa2bbca83cc", 11177);
    ("torus", "links", "gomcds-grouped",
      "4a03589763822aaaf2d3029103c6bed4", 11124);
    ("torus", "links", "best-refined",
      "fc46958521f282b06b3be14fa4287f3d", 9877);
  ]

let golden_fault mesh = function
  | "none" -> Pim.Fault.none
  | "nodes" -> Pim.Fault.inject ~seed:1 ~node_rate:0.05 ~link_rate:0. mesh
  | _ -> Pim.Fault.inject ~seed:2 ~node_rate:0.05 ~link_rate:0.02 mesh

let golden_hosts =
  [
    ("mesh", Pim.Mesh.create ~rows:16 ~cols:16);
    ("torus", Pim.Mesh.torus ~rows:16 ~cols:16);
  ]

let test_golden_plans host () =
  let mesh = List.assoc host golden_hosts in
  let trace =
    Workloads.Benchmarks.trace ~partition:Workloads.Iteration_space.Block_2d
      Workloads.Benchmarks.B1 ~n:16 mesh
  in
  let policy =
    Sched.Problem.headroom_policy ~headroom:2
      ~processors:(Pim.Mesh.size mesh) trace
  in
  List.iter
    (fun (h, fault, alg, digest, total) ->
      if h = host then begin
        let problem =
          Sched.Problem.create ~policy ~fault:(golden_fault mesh fault) mesh
            trace
        in
        let s = Sched.Scheduler.solve problem (Sched.Scheduler.of_name alg) in
        let name = Printf.sprintf "%s %s %s" host fault alg in
        Alcotest.(check string)
          (name ^ ": plan digest") digest
          (Digest.to_hex (Digest.string (Sched.Schedule_serial.to_string s)));
        check_int (name ^ ": total") total
          (Sched.Schedule.cost s trace).Sched.Schedule.total
      end)
    golden_plans

(* Golden plans of the two grouped schedulers on the shapes where a
   nearest-rank walk goes wrong if it goes wrong anywhere: a 4x16 mesh
   (short columns), a 5x7 torus (odd rings on both axes) and a 1x7 line
   (a one-wide axis), LU under the headroom-2 bound, healthy and with
   seeded node faults. Seed 1 at rate 0.1 kills no rank of the 7-rank
   line, so the line also runs at rate 0.3. Pinned like the 16x16
   goldens above. *)
let golden_small_plans =
  [
    ("4x16 mesh", "none", "lomcds-grouped", "1c1348f9ca0a9afff233ee2db7ee2972", 6578);
    ("4x16 mesh", "none", "gomcds-grouped", "cf66c81f9218897e79fee2a225f6fef4", 6566);
    ("4x16 mesh", "nodes", "lomcds-grouped", "bc6de82ce40f7fc854743b665fc9dd1a", 7367);
    ("4x16 mesh", "nodes", "gomcds-grouped", "e761d3c39489951828bef86d634770d5", 7408);
    ("5x7 torus", "none", "lomcds-grouped", "9abece4b2c0517669448d82298e2daa3", 1577);
    ("5x7 torus", "none", "gomcds-grouped", "fe7f29e7c93ff576d3e7f3058481e6cd", 1559);
    ("5x7 torus", "nodes", "lomcds-grouped", "f3d6ebbef3039f2edd0a4be3030bf11c", 1622);
    ("5x7 torus", "nodes", "gomcds-grouped", "23dfb65fe14af9c3b2d7a65060a72dfc", 1612);
    ("1x7 line", "none", "lomcds-grouped", "4723b93ebf19c00f1d2c7fcb128a3cf3", 310);
    ("1x7 line", "none", "gomcds-grouped", "1806b6211fc8f1de99356654e57924b5", 310);
    ("1x7 line", "nodes", "lomcds-grouped", "4723b93ebf19c00f1d2c7fcb128a3cf3", 310);
    ("1x7 line", "nodes", "gomcds-grouped", "1806b6211fc8f1de99356654e57924b5", 310);
    ("1x7 line", "nodes 0.3", "lomcds-grouped", "fa13a52441e902e9ae0a14b1de929a07", 418);
    ("1x7 line", "nodes 0.3", "gomcds-grouped", "fa13a52441e902e9ae0a14b1de929a07", 418);
  ]

let golden_small_hosts =
  [
    ("4x16 mesh", (Pim.Mesh.create ~rows:4 ~cols:16, 16));
    ("5x7 torus", (Pim.Mesh.torus ~rows:5 ~cols:7, 12));
    ("1x7 line", (Pim.Mesh.create ~rows:1 ~cols:7, 8));
  ]

let test_golden_small_plans () =
  List.iter
    (fun (host, fault, alg, digest, total) ->
      let mesh, n = List.assoc host golden_small_hosts in
      let trace =
        Workloads.Benchmarks.trace
          ~partition:Workloads.Iteration_space.Block_2d Workloads.Benchmarks.B1
          ~n mesh
      in
      let policy =
        Sched.Problem.headroom_policy ~headroom:2
          ~processors:(Pim.Mesh.size mesh) trace
      in
      let name = Printf.sprintf "%s %s %s" host fault alg in
      let fault =
        match fault with
        | "none" -> Pim.Fault.none
        | "nodes" -> Pim.Fault.inject ~seed:1 ~node_rate:0.1 ~link_rate:0. mesh
        | _ -> Pim.Fault.inject ~seed:1 ~node_rate:0.3 ~link_rate:0. mesh
      in
      let problem = Sched.Problem.create ~policy ~fault mesh trace in
      let s = Sched.Scheduler.solve problem (Sched.Scheduler.of_name alg) in
      Alcotest.(check string)
        (name ^ ": plan digest") digest
        (Digest.to_hex (Digest.string (Sched.Schedule_serial.to_string s)));
      check_int (name ^ ": total") total
        (Sched.Schedule.cost s trace).Sched.Schedule.total)
    golden_small_plans

let suite =
  [
    Gen.case "golden LU 16 plans, 16x16 mesh" (test_golden_plans "mesh");
    Gen.case "golden LU 16 plans, 16x16 torus" (test_golden_plans "torus");
    Gen.case "golden LU plans, 4x16 mesh, 5x7 torus, 1x7 line"
      test_golden_small_plans;
    Gen.case "identical windows merge" test_identical_windows_merge;
    Gen.case "opposed windows stay apart" test_opposed_windows_stay_apart;
    Gen.case "unreferenced datum empty" test_unreferenced_datum_empty_partition;
    Gen.case "gap windows excluded" test_gap_windows_excluded_from_groups;
    Gen.case "datum parked during gap" test_schedule_keeps_datum_during_gap;
    Gen.case "repair places heaviest first" test_repair_heaviest_first;
    Gen.to_alcotest prop_never_worse_than_lomcds;
    Gen.to_alcotest prop_global_centers_never_worse_than_local;
    Gen.to_alcotest prop_groups_partition_referenced_windows;
    Gen.to_alcotest prop_capacity_never_violated;
  ]
