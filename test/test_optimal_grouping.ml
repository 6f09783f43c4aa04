let mesh = Gen.mesh44

let partition_cost mesh trace ~data groups =
  (* evaluate a per-datum partition the way the schedulers price it *)
  let windows = Array.of_list (Reftrace.Trace.windows trace) in
  let rec go prev acc = function
    | [] -> acc
    | (g : Sched.Grouping.group) :: rest ->
        let refc = ref 0 in
        for w = g.Sched.Grouping.first to g.Sched.Grouping.last do
          refc :=
            !refc
            + Sched.Cost.reference_cost mesh windows.(w) ~data
                ~center:g.Sched.Grouping.center
        done;
        let move =
          match prev with
          | None -> 0
          | Some p -> Pim.Mesh.distance mesh p g.Sched.Grouping.center
        in
        go (Some g.Sched.Grouping.center) (acc + !refc + move) rest
  in
  go None 0 groups

let test_single_window_trivial () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 9, 3) ] ] in
  match Sched.Grouping.optimal_groups (Sched.Problem.create mesh t) ~data:0 with
  | [ g ] ->
      Alcotest.(check int) "covers window" 0 g.Sched.Grouping.first;
      Alcotest.(check int) "center" 9 g.Sched.Grouping.center
  | _ -> Alcotest.fail "one group expected"

let test_unreferenced_empty () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 1, 1) ] ] in
  Alcotest.(check int)
    "empty" 0
    (List.length (Sched.Grouping.optimal_groups (Sched.Problem.create mesh t) ~data:1))

let prop_optimal_equals_gomcds_per_datum =
  (* the structural fact from the interface: optimal grouping attains the
     per-datum GOMCDS optimum exactly *)
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:6 ~max_count:5 () in
  QCheck.Test.make ~name:"optimal grouping cost = GOMCDS optimum per datum"
    ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let groups = Sched.Grouping.optimal_groups (Sched.Problem.create mesh t) ~data in
        if groups <> [] then begin
          let dp_cost, _ = Oracle.Gomcds.optimal_centers mesh t ~data in
          if partition_cost mesh t ~data groups <> dp_cost then ok := false
        end
      done;
      !ok)

let prop_optimal_never_worse_than_greedy =
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:6 ~max_count:5 () in
  QCheck.Test.make ~name:"optimal grouping <= greedy Algorithm 3 per datum"
    ~count:100 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let optimal = Sched.Grouping.optimal_groups (Sched.Problem.create mesh t) ~data in
        let greedy = Sched.Grouping.groups (Sched.Problem.create mesh t) ~data ~centers:`Local in
        match (optimal, greedy) with
        | [], [] -> ()
        | o, g ->
            if
              partition_cost mesh t ~data o > partition_cost mesh t ~data g
            then ok := false
      done;
      !ok)

let prop_groups_well_formed =
  let arb = Gen.trace_arbitrary ~max_data:3 ~max_windows:6 ~max_count:4 () in
  QCheck.Test.make ~name:"optimal groups are ordered and disjoint" ~count:100
    arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let ok = ref true in
      for data = 0 to n - 1 do
        let rec check prev = function
          | [] -> ()
          | (g : Sched.Grouping.group) :: rest ->
              if g.Sched.Grouping.first <= prev then ok := false;
              if g.Sched.Grouping.last < g.Sched.Grouping.first then
                ok := false;
              check g.Sched.Grouping.last rest
        in
        check (-1) (Sched.Grouping.optimal_groups (Sched.Problem.create mesh t) ~data)
      done;
      !ok)

let test_optimal_run_matches_gomcds_unbounded () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  Alcotest.(check int)
    "whole-schedule equality"
    (Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t)
    (Sched.Schedule.total_cost (Sched.Grouping.optimal_schedule (Sched.Problem.create mesh t)) t)

let prop_optimal_run_capacity_respected =
  let arb = Gen.trace_arbitrary ~max_data:12 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make ~name:"optimal_run respects capacity" ~count:50 arb
    (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s = Sched.Grouping.optimal_schedule (Gen.bounded capacity mesh t) in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let suite =
  [
    Gen.case "single window trivial" test_single_window_trivial;
    Gen.case "unreferenced empty" test_unreferenced_empty;
    Gen.to_alcotest prop_optimal_equals_gomcds_per_datum;
    Gen.to_alcotest prop_optimal_never_worse_than_greedy;
    Gen.to_alcotest prop_groups_well_formed;
    Gen.case "optimal_run = gomcds unbounded" test_optimal_run_matches_gomcds_unbounded;
    Gen.to_alcotest prop_optimal_run_capacity_respected;
  ]
