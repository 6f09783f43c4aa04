let mesh = Gen.mesh44
let problem t = Sched.Problem.create mesh t
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_zero_iterations_is_identity () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let s, stats = Sched.Annealing.anneal ~iterations:0 (problem t) in
  check_int "unchanged" stats.Sched.Annealing.initial_cost
    (Sched.Schedule.total_cost s t);
  check_int "no acceptances" 0 stats.Sched.Annealing.accepted

let test_improves_row_wise () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  let _, stats = Sched.Annealing.anneal ~iterations:20_000 (problem t) in
  check_bool "improved" true
    (stats.Sched.Annealing.final_cost < stats.Sched.Annealing.initial_cost)

let test_deterministic_per_seed () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  let a, sa = Sched.Annealing.anneal ~seed:7 ~iterations:5_000 (problem t) in
  let b, sb = Sched.Annealing.anneal ~seed:7 ~iterations:5_000 (problem t) in
  check_bool "same schedule" true (Sched.Schedule.equal a b);
  check_int "same cost" sa.Sched.Annealing.final_cost
    sb.Sched.Annealing.final_cost;
  let c, _ = Sched.Annealing.anneal ~seed:8 ~iterations:5_000 (problem t) in
  check_bool "different seed explores differently" false
    (Sched.Schedule.equal a c)

let test_final_cost_consistent () =
  let t = Workloads.Matmul.trace ~n:8 mesh in
  let s, stats = Sched.Annealing.anneal ~iterations:10_000 (problem t) in
  check_int "incremental accounting exact" stats.Sched.Annealing.final_cost
    (Sched.Schedule.total_cost s t)

let test_initial_shape_checked () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 0, 1) ] ] in
  let bad = Sched.Schedule.create mesh ~n_windows:2 ~n_data:2 in
  Alcotest.check_raises "shape"
    (Invalid_argument "Annealing.anneal: initial schedule shape mismatch")
    (fun () -> ignore (Sched.Annealing.anneal ~initial:bad (problem t)))

let prop_capacity_respected =
  let arb = Gen.trace_arbitrary ~max_data:12 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make ~name:"annealing never violates capacity" ~count:30 arb
    (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s, _ =
        Sched.Annealing.anneal ~iterations:3_000 (Gen.bounded capacity mesh t)
      in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let prop_respects_lower_bound =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make ~name:"annealed cost >= lower bound" ~count:30 arb
    (fun t ->
      let s, _ = Sched.Annealing.anneal ~iterations:3_000 (problem t) in
      Sched.Schedule.total_cost s t >= Sched.Bounds.lower_bound_in (problem t))

let test_gomcds_beats_annealing_on_lu () =
  let t = Workloads.Lu.trace ~n:12 mesh in
  let _, stats = Sched.Annealing.anneal ~iterations:60_000 (problem t) in
  let gomcds = Sched.Schedule.total_cost (Sched.Gomcds.schedule (problem t)) t in
  check_bool "structure beats search" true
    (gomcds <= stats.Sched.Annealing.final_cost)

let suite =
  [
    Gen.case "zero iterations identity" test_zero_iterations_is_identity;
    Gen.case "improves row-wise" test_improves_row_wise;
    Gen.case "deterministic per seed" test_deterministic_per_seed;
    Gen.case "final cost consistent" test_final_cost_consistent;
    Gen.case "initial shape checked" test_initial_shape_checked;
    Gen.to_alcotest prop_capacity_respected;
    Gen.to_alcotest prop_respects_lower_bound;
    Gen.case "gomcds beats annealing on LU" test_gomcds_beats_annealing_on_lu;
  ]
