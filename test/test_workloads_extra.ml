(* Tests for the extension workloads (transitive closure, FFT transpose)
   and the Viz renderers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mesh = Gen.mesh44

(* -- Transitive closure --------------------------------------------------- *)

let test_tc_shape () =
  let t = Workloads.Transitive_closure.trace ~n:8 mesh in
  check_int "n windows" 8 (Reftrace.Trace.n_windows t);
  check_int "single matrix" 64
    (Reftrace.Data_space.size (Reftrace.Trace.space t));
  check_int "3 n^3 refs" (3 * 8 * 8 * 8) (Reftrace.Trace.total_references t)

let test_tc_hot_row_col () =
  let n = 8 in
  let t = Workloads.Transitive_closure.trace ~n mesh in
  let space = Reftrace.Trace.space t in
  let d r c = Reftrace.Data_space.id space ~array_name:"D" ~row:r ~col:c in
  let w5 = Reftrace.Trace.window t 5 in
  (* D(i,5) and D(5,j) are read by a whole row/column of iterations;
     D(5,5) is doubly hot (it is both D(i,k) for i=5 and D(k,j) for j=5,
     plus its own in-place update) *)
  check_bool "pivot row hot" true
    (Reftrace.Window.references w5 (d 0 5)
    > Reftrace.Window.references w5 (d 0 4));
  check_int "pivot element hottest" (n + n + 1)
    (Reftrace.Window.references w5 (d 5 5))

let test_tc_movement_helps () =
  let t = Workloads.Transitive_closure.trace ~n:16 mesh in
  let static = Sched.Schedule.total_cost (Sched.Scds.schedule (Sched.Problem.create mesh t)) t in
  let dynamic = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t in
  check_bool "multi-center wins" true (dynamic < static)

(* -- FFT transpose -------------------------------------------------------- *)

let test_fft_shape () =
  let t = Workloads.Fft_transpose.trace ~n:8 mesh in
  check_int "three phases" 3 (Reftrace.Trace.n_windows t);
  (* rows: 64 * log2 8 = 192 refs per FFT phase; transpose: 128 *)
  check_int "total refs" ((2 * 192) + 128) (Reftrace.Trace.total_references t)

let test_fft_rejects_non_power_of_two () =
  Alcotest.check_raises "n=6"
    (Invalid_argument "Fft_transpose.trace: n must be a power of two >= 2")
    (fun () -> ignore (Workloads.Fft_transpose.trace ~n:6 mesh))

let test_fft_transpose_window_is_symmetric () =
  let n = 8 in
  let t = Workloads.Fft_transpose.trace ~n mesh in
  let space = Reftrace.Trace.space t in
  let x r c = Reftrace.Data_space.id space ~array_name:"X" ~row:r ~col:c in
  let w1 = Reftrace.Trace.window t 1 in
  (* in the transpose window, X(i,j) is touched by owner(i,j) (write) and
     owner(j,i) (read): 2 references for every element *)
  check_int "two refs" 2 (Reftrace.Window.references w1 (x 2 5));
  check_int "diagonal also two" 2 (Reftrace.Window.references w1 (x 3 3))

let test_fft_fft_phases_local_under_block_partition () =
  (* with block-2d owner-computes, phase 0 references are all local to the
     owner, so a good schedule pays only for the transpose *)
  let t = Workloads.Fft_transpose.trace ~n:8 mesh in
  let s = Sched.Gomcds.schedule (Sched.Problem.create mesh t) in
  let breakdown = Sched.Schedule.cost s t in
  check_bool "cost dominated by transpose+movement" true
    (breakdown.Sched.Schedule.total
    < Sched.Schedule.total_cost
        (Sched.Scheduler.solve (Sched.Problem.create mesh t)
           Sched.Scheduler.Row_wise)
        t)

(* -- Viz ------------------------------------------------------------------ *)

let test_window_heatmap_renders_counts () =
  let w = Gen.window ~n_data:1 [ (0, 0, 7); (0, 5, 12) ] in
  let s = Sched.Viz.window_heatmap mesh w ~data:0 in
  let lines = String.split_on_char '\n' s in
  (* 4 rows + 5 rules + trailing empty *)
  Alcotest.(check int) "line count" 10 (List.length lines);
  let mem needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "shows 12" true (mem "12");
  check_bool "shows 7" true (mem " 7")

let test_total_heatmap_sums () =
  let w = Gen.window ~n_data:2 [ (0, 0, 3); (1, 0, 4) ] in
  let s = Sched.Viz.total_heatmap mesh w in
  check_bool "summed cell" true
    (String.length s > 0
    &&
    let mem needle =
      let n = String.length needle and h = String.length s in
      let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
      go 0
    in
    mem "7")

let test_load_map_counts_data () =
  let s = Sched.Schedule.constant mesh ~n_windows:1 [| 3; 3; 0 |] in
  let rendered = Sched.Viz.load_map mesh s ~window:0 in
  let mem needle =
    let n = String.length needle and h = String.length rendered in
    let rec go i =
      i + n <= h && (String.sub rendered i n = needle || go (i + 1))
    in
    go 0
  in
  check_bool "two at rank 3" true (mem "2");
  check_bool "one at rank 0" true (mem "1")

let test_trajectory_renders_arrows () =
  let s = Sched.Schedule.create mesh ~n_windows:3 ~n_data:1 in
  Sched.Schedule.set_center s ~window:1 ~data:0 5;
  Sched.Schedule.set_center s ~window:2 ~data:0 5;
  Alcotest.(check string)
    "arrows" "(0,0) -> (1,1) -> (1,1)"
    (Sched.Viz.trajectory mesh s ~data:0)

let suite =
  [
    Gen.case "transitive closure shape" test_tc_shape;
    Gen.case "transitive closure hot row/col" test_tc_hot_row_col;
    Gen.case "transitive closure movement helps" test_tc_movement_helps;
    Gen.case "fft shape" test_fft_shape;
    Gen.case "fft rejects non-power-of-two" test_fft_rejects_non_power_of_two;
    Gen.case "fft transpose symmetric" test_fft_transpose_window_is_symmetric;
    Gen.case "fft beats row-wise" test_fft_fft_phases_local_under_block_partition;
    Gen.case "viz window heatmap" test_window_heatmap_renders_counts;
    Gen.case "viz total heatmap" test_total_heatmap_sums;
    Gen.case "viz load map" test_load_map_counts_data;
    Gen.case "viz trajectory" test_trajectory_renders_arrows;
  ]
