(* Tests for the Cholesky and histogram-reduction workloads. *)

let mesh = Gen.mesh44
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Cholesky -------------------------------------------------------------- *)

let test_cholesky_shape () =
  let n = 8 in
  let t = Workloads.Cholesky.trace ~n mesh in
  check_int "n-1 windows" (n - 1) (Reftrace.Trace.n_windows t);
  (* per step k: 2(n-1-k) scaling refs + 3 * T(n-1-k) updates where
     T(r) = r(r+1)/2 *)
  let expected = ref 0 in
  for k = 0 to n - 2 do
    let r = n - 1 - k in
    expected := !expected + (2 * r) + (3 * r * (r + 1) / 2)
  done;
  check_int "reference count" !expected (Reftrace.Trace.total_references t)

let test_cholesky_upper_triangle_cold () =
  let n = 8 in
  let t = Workloads.Cholesky.trace ~n mesh in
  let space = Reftrace.Trace.space t in
  let merged = Reftrace.Trace.merged t in
  let a r c = Reftrace.Data_space.id space ~array_name:"A" ~row:r ~col:c in
  check_int "strictly upper never touched" 0
    (Reftrace.Window.references merged (a 0 7));
  check_bool "lower is hot" true
    (Reftrace.Window.references merged (a 7 0) > 0)

let test_cholesky_writes_marked () =
  let t = Workloads.Cholesky.trace ~n:6 mesh in
  let space = Reftrace.Trace.space t in
  let a r c = Reftrace.Data_space.id space ~array_name:"A" ~row:r ~col:c in
  let w0 = Reftrace.Trace.window t 0 in
  check_bool "a(i,0) written in step 0" true
    (Reftrace.Window.writes w0 (a 3 0) > 0);
  check_int "pivot only read" 0 (Reftrace.Window.writes w0 (a 0 0))

let test_cholesky_cheaper_than_lu () =
  (* half the flops, so roughly half the communication *)
  let n = 12 in
  let lu = Workloads.Lu.trace ~n mesh in
  let ch = Workloads.Cholesky.trace ~n mesh in
  let cost t = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t in
  check_bool "triangular is cheaper" true (cost ch < cost lu)

(* -- Reduction -------------------------------------------------------------- *)

let test_reduction_shape () =
  let t = Workloads.Reduction.trace ~n:8 ~bins:4 mesh in
  check_int "one window per mesh row" 4 (Reftrace.Trace.n_windows t);
  check_int "X plus H" (64 + 4)
    (Reftrace.Data_space.size (Reftrace.Trace.space t));
  (* every element: one read of X plus one write to H *)
  check_int "2 refs per element" (2 * 64) (Reftrace.Trace.total_references t)

let test_reduction_bins_are_write_hot () =
  let t = Workloads.Reduction.trace ~n:16 ~bins:4 mesh in
  let space = Reftrace.Trace.space t in
  let h = Reftrace.Data_space.id space ~array_name:"H" ~row:0 ~col:0 in
  let merged = Reftrace.Trace.merged t in
  check_bool "bin written from many places" true
    (List.length (Reftrace.Window.write_profile merged h) > 4);
  check_int "bins never read" 0
    (List.length (Reftrace.Window.read_profile merged h))

let test_reduction_x_reads_local () =
  (* X is only read, and only by its owner: GOMCDS serves every X element
     locally, so the whole cost comes from the shared histogram *)
  let t = Workloads.Reduction.trace ~n:16 ~bins:4 mesh in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let space = Reftrace.Trace.space t in
  let free = ref true in
  for row = 0 to 15 do
    for col = 0 to 15 do
      let data = Reftrace.Data_space.id space ~array_name:"X" ~row ~col in
      List.iteri
        (fun w window ->
          let center = Sched.Schedule.center s ~window:w ~data in
          if Sched.Cost.reference_cost mesh window ~data ~center <> 0 then
            free := false)
        (Reftrace.Trace.windows t)
    done
  done;
  check_bool "every X access is local" true !free

let test_reduction_replication_useless () =
  (* every histogram access is a write: write-invalidate pins each bin *)
  let t = Workloads.Reduction.trace ~n:16 ~bins:4 mesh in
  let single = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t in
  let r =
    Sched.Replicated.schedule ~max_copies:8 (Sched.Problem.create mesh t)
  in
  check_int "no replication win" single
    (Sched.Replicated.cost r mesh t).Sched.Replicated.total

let test_reduction_deterministic () =
  let a = Workloads.Reduction.trace ~n:8 ~bins:4 mesh in
  let b = Workloads.Reduction.trace ~n:8 ~bins:4 mesh in
  check_bool "same seed same trace" true
    (List.for_all2 Reftrace.Window.equal (Reftrace.Trace.windows a)
       (Reftrace.Trace.windows b))

let test_reduction_movement_follows_writers () =
  (* the active band sweeps down the array; bins should migrate with it *)
  let t = Workloads.Reduction.trace ~n:32 ~bins:2 mesh in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let space = Reftrace.Trace.space t in
  let h = Reftrace.Data_space.id space ~array_name:"H" ~row:0 ~col:0 in
  check_bool "bin migrates" false (Sched.Schedule.is_static s ~data:h)

(* -- Wavefront --------------------------------------------------------------- *)

let test_wavefront_shape () =
  let t = Workloads.Wavefront.trace ~n:10 ~diags_per_window:3 mesh in
  (* interior anti-diagonals: d = 2 .. 16, banded by 3 -> 5 windows *)
  check_int "windows" 5 (Reftrace.Trace.n_windows t);
  (* every interior cell appears exactly once as a write *)
  let merged = Reftrace.Trace.merged t in
  let space = Reftrace.Trace.space t in
  let u r c = Reftrace.Data_space.id space ~array_name:"U" ~row:r ~col:c in
  check_int "one write per cell" 1
    (List.fold_left (fun acc (_, c) -> acc + c)
       0
       (Reftrace.Window.write_profile merged (u 4 4)))

let test_wavefront_front_moves () =
  let t = Workloads.Wavefront.trace ~n:16 mesh in
  let p = Reftrace.Stats.profile mesh t in
  check_bool "drifting front" true (p.Reftrace.Stats.drift > 0.2)

let test_wavefront_validates () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Wavefront.trace: n must be at least 3") (fun () ->
      ignore (Workloads.Wavefront.trace ~n:2 mesh));
  Alcotest.check_raises "bad band"
    (Invalid_argument "Wavefront.trace: diags_per_window must be positive")
    (fun () ->
      ignore (Workloads.Wavefront.trace ~n:8 ~diags_per_window:0 mesh))

let test_wavefront_movement_helps () =
  let t = Workloads.Wavefront.trace ~n:16 ~diags_per_window:4 mesh in
  let static = Sched.Schedule.total_cost (Sched.Scds.schedule (Sched.Problem.create mesh t)) t in
  let dynamic = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t in
  check_bool "front-following wins" true (dynamic <= static)

let suite =
  [
    Gen.case "wavefront shape" test_wavefront_shape;
    Gen.case "wavefront front moves" test_wavefront_front_moves;
    Gen.case "wavefront validates" test_wavefront_validates;
    Gen.case "wavefront movement helps" test_wavefront_movement_helps;
    Gen.case "cholesky shape" test_cholesky_shape;
    Gen.case "cholesky upper triangle cold" test_cholesky_upper_triangle_cold;
    Gen.case "cholesky writes marked" test_cholesky_writes_marked;
    Gen.case "cholesky cheaper than LU" test_cholesky_cheaper_than_lu;
    Gen.case "reduction shape" test_reduction_shape;
    Gen.case "reduction bins write-hot" test_reduction_bins_are_write_hot;
    Gen.case "reduction X reads local" test_reduction_x_reads_local;
    Gen.case "reduction replication useless" test_reduction_replication_useless;
    Gen.case "reduction deterministic" test_reduction_deterministic;
    Gen.case "reduction movement follows writers" test_reduction_movement_follows_writers;
  ]
