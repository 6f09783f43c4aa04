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

let suite =
  [
    Gen.case "identical windows merge" test_identical_windows_merge;
    Gen.case "opposed windows stay apart" test_opposed_windows_stay_apart;
    Gen.case "unreferenced datum empty" test_unreferenced_datum_empty_partition;
    Gen.case "gap windows excluded" test_gap_windows_excluded_from_groups;
    Gen.case "datum parked during gap" test_schedule_keeps_datum_during_gap;
    Gen.to_alcotest prop_never_worse_than_lomcds;
    Gen.to_alcotest prop_global_centers_never_worse_than_local;
    Gen.to_alcotest prop_groups_partition_referenced_windows;
    Gen.to_alcotest prop_capacity_never_violated;
  ]
