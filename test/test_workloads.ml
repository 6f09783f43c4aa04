let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mesh = Gen.mesh44

(* -- Iteration_space ----------------------------------------------------- *)

let test_owner_block_2d () =
  let owner i j =
    Workloads.Iteration_space.owner Workloads.Iteration_space.Block_2d mesh
      ~extent_i:8 ~extent_j:8 ~i ~j
  in
  check_int "top left" 0 (owner 0 0);
  check_int "same tile" 0 (owner 1 1);
  check_int "bottom right" 15 (owner 7 7)

let test_owner_cyclic () =
  let owner i j =
    Workloads.Iteration_space.owner Workloads.Iteration_space.Cyclic_2d mesh
      ~extent_i:8 ~extent_j:8 ~i ~j
  in
  check_int "wraps rows" (owner 0 0) (owner 4 0);
  check_int "wraps cols" (owner 0 0) (owner 0 4)

let test_owner_bounds () =
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Iteration_space.owner: (8,0) outside 8x8") (fun () ->
      ignore
        (Workloads.Iteration_space.owner Workloads.Iteration_space.Block_2d
           mesh ~extent_i:8 ~extent_j:8 ~i:8 ~j:0))

let prop_owner_always_on_mesh =
  QCheck.Test.make ~name:"owners are valid ranks for all partitions"
    ~count:200
    QCheck.(triple (int_range 1 20) (int_bound 19) (int_bound 19))
    (fun (n, i, j) ->
      let i = i mod n and j = j mod n in
      List.for_all
        (fun p ->
          let r =
            Workloads.Iteration_space.owner p mesh ~extent_i:n ~extent_j:n ~i
              ~j
          in
          r >= 0 && r < Pim.Mesh.size mesh)
        Workloads.Iteration_space.all)

(* -- LU ------------------------------------------------------------------ *)

let test_lu_shape () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  check_int "n-1 windows" 7 (Reftrace.Trace.n_windows t);
  check_int "data = n^2" 64
    (Reftrace.Data_space.size (Reftrace.Trace.space t));
  Oracle.Trace.validate t mesh

let test_lu_reference_count () =
  (* step k: 2(n-1-k) scaling refs + 3(n-1-k)^2 update refs *)
  let n = 6 in
  let t = Workloads.Lu.trace ~n mesh in
  let expected = ref 0 in
  for k = 0 to n - 2 do
    let r = n - 1 - k in
    expected := !expected + (2 * r) + (3 * r * r)
  done;
  check_int "total refs" !expected (Reftrace.Trace.total_references t)

let test_lu_pivot_is_hot () =
  let n = 8 in
  let t = Workloads.Lu.trace ~n mesh in
  let space = Reftrace.Trace.space t in
  let w0 = Reftrace.Trace.window t 0 in
  let pivot = Reftrace.Data_space.id space ~array_name:"A" ~row:0 ~col:0 in
  let corner = Reftrace.Data_space.id space ~array_name:"A" ~row:7 ~col:7 in
  check_bool "pivot referenced more than corner" true
    (Reftrace.Window.references w0 pivot
    > Reftrace.Window.references w0 corner)

let test_lu_validates_n () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Lu.trace: n must be at least 2") (fun () ->
      ignore (Workloads.Lu.trace ~n:1 mesh))

(* -- Matmul --------------------------------------------------------------- *)

let test_matmul_shape () =
  let t = Workloads.Matmul.trace ~n:8 mesh in
  check_int "n windows" 8 (Reftrace.Trace.n_windows t);
  check_int "A and C" 128 (Reftrace.Data_space.size (Reftrace.Trace.space t));
  check_int "3 n^3 references" (3 * 8 * 8 * 8)
    (Reftrace.Trace.total_references t)

let test_matmul_window_k_touches_row_and_col_k () =
  let n = 8 in
  let t = Workloads.Matmul.trace ~n mesh in
  let space = Reftrace.Trace.space t in
  let w3 = Reftrace.Trace.window t 3 in
  let a r c = Reftrace.Data_space.id space ~array_name:"A" ~row:r ~col:c in
  (* every iteration of window 3 reads A(i,3) and A(3,j) *)
  check_int "A(0,3) read n times" n (Reftrace.Window.references w3 (a 0 3));
  check_int "A(3,0) read n times" n (Reftrace.Window.references w3 (a 3 0));
  check_int "A(0,0) not read" 0 (Reftrace.Window.references w3 (a 0 0))

(* -- Code_kernel ---------------------------------------------------------- *)

let test_code_shape_and_determinism () =
  let a = Workloads.Code_kernel.trace ~n:8 mesh in
  let b = Workloads.Code_kernel.trace ~n:8 mesh in
  check_int "n/2 windows" 4 (Reftrace.Trace.n_windows a);
  check_bool "deterministic" true
    (List.for_all2 Reftrace.Window.equal (Reftrace.Trace.windows a)
       (Reftrace.Trace.windows b));
  let c = Workloads.Code_kernel.trace ~seed:99 ~n:8 mesh in
  check_bool "seed changes the jitter" false
    (List.for_all2 Reftrace.Window.equal (Reftrace.Trace.windows a)
       (Reftrace.Trace.windows c))

let test_code_is_time_varying () =
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let w0 = Reftrace.Trace.window t 0
  and w_last =
    Reftrace.Trace.window t (Reftrace.Trace.n_windows t - 1)
  in
  check_bool "windows differ" false (Reftrace.Window.equal w0 w_last)

let test_code_rewards_movement () =
  (* the defining property of the substitute kernel: multi-center scheduling
     strictly beats the best static scheduling *)
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let static = Sched.Schedule.total_cost (Sched.Scds.schedule (Sched.Problem.create mesh t)) t in
  let dynamic = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t in
  check_bool "movement pays off" true (dynamic < static)

(* -- Stencil -------------------------------------------------------------- *)

let test_stencil_shape () =
  let t = Workloads.Stencil.trace ~n:8 ~sweeps:3 mesh in
  check_int "sweeps" 3 (Reftrace.Trace.n_windows t);
  check_int "5 refs per interior point" (3 * 5 * 6 * 6)
    (Reftrace.Trace.total_references t)

let test_stencil_is_uniform () =
  let t = Workloads.Stencil.trace ~n:8 ~sweeps:3 mesh in
  let ws = Reftrace.Trace.windows t in
  check_bool "all windows equal" true
    (List.for_all (Reftrace.Window.equal (List.hd ws)) ws)

let test_stencil_movement_buys_nothing () =
  let t = Workloads.Stencil.trace ~n:8 ~sweeps:3 mesh in
  let static = Sched.Schedule.total_cost (Sched.Scds.schedule (Sched.Problem.create mesh t)) t in
  let dynamic = Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t in
  check_int "equal cost" static dynamic

(* -- Benchmarks ----------------------------------------------------------- *)

let test_benchmark_labels () =
  Alcotest.(check (list string))
    "labels" [ "1"; "2"; "3"; "4"; "5" ]
    (List.map Workloads.Benchmarks.label Workloads.Benchmarks.all);
  Alcotest.check_raises "bad label"
    (Invalid_argument "Benchmarks.of_label: unknown \"7\"") (fun () ->
      ignore (Workloads.Benchmarks.of_label "7"))

let test_benchmark_composition () =
  let n = 8 in
  let b2 = Workloads.Benchmarks.trace Workloads.Benchmarks.B2 ~n mesh in
  let b3 = Workloads.Benchmarks.trace Workloads.Benchmarks.B3 ~n mesh in
  let code = Workloads.Code_kernel.trace ~n mesh in
  check_int "b3 windows = b2 + code"
    (Reftrace.Trace.n_windows b2 + Reftrace.Trace.n_windows code)
    (Reftrace.Trace.n_windows b3);
  (* b3 shares A between matmul and CODE: space stays {A, C} *)
  check_int "b3 data space" (2 * n * n)
    (Reftrace.Data_space.size (Reftrace.Trace.space b3))

let test_benchmark_b5_palindrome () =
  let n = 8 in
  let b5 = Workloads.Benchmarks.trace Workloads.Benchmarks.B5 ~n mesh in
  let k = Reftrace.Trace.n_windows b5 in
  check_int "even windows" 0 (k mod 2);
  (* window i equals window (k-1-i): CODE then reversed CODE *)
  check_bool "palindrome" true
    (List.for_all
       (fun i ->
         Reftrace.Window.equal
           (Reftrace.Trace.window b5 i)
           (Reftrace.Trace.window b5 (k - 1 - i)))
       (List.init k Fun.id))

let test_benchmark_capacity_rule () =
  check_int "b1 8x8 on 4x4 = paper's example" 8
    (Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:8 mesh);
  check_int "b2 doubles data" 16
    (Workloads.Benchmarks.capacity Workloads.Benchmarks.B2 ~n:8 mesh)

let prop_all_benchmarks_validate =
  QCheck.Test.make ~name:"every benchmark trace validates on the mesh"
    ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 4 10))
    (fun n ->
      List.for_all
        (fun b ->
          let t = Workloads.Benchmarks.trace b ~n mesh in
          Oracle.Trace.validate t mesh;
          Reftrace.Trace.total_references t > 0)
        Workloads.Benchmarks.all)

let suite =
  [
    Gen.case "owner block-2d" test_owner_block_2d;
    Gen.case "owner cyclic" test_owner_cyclic;
    Gen.case "owner bounds" test_owner_bounds;
    Gen.to_alcotest prop_owner_always_on_mesh;
    Gen.case "lu shape" test_lu_shape;
    Gen.case "lu reference count" test_lu_reference_count;
    Gen.case "lu pivot is hot" test_lu_pivot_is_hot;
    Gen.case "lu validates n" test_lu_validates_n;
    Gen.case "matmul shape" test_matmul_shape;
    Gen.case "matmul window k hot row/col" test_matmul_window_k_touches_row_and_col_k;
    Gen.case "code shape and determinism" test_code_shape_and_determinism;
    Gen.case "code is time-varying" test_code_is_time_varying;
    Gen.case "code rewards movement" test_code_rewards_movement;
    Gen.case "stencil shape" test_stencil_shape;
    Gen.case "stencil is uniform" test_stencil_is_uniform;
    Gen.case "stencil movement buys nothing" test_stencil_movement_buys_nothing;
    Gen.case "benchmark labels" test_benchmark_labels;
    Gen.case "benchmark composition" test_benchmark_composition;
    Gen.case "benchmark b5 palindrome" test_benchmark_b5_palindrome;
    Gen.case "benchmark capacity rule" test_benchmark_capacity_rule;
    Gen.to_alcotest prop_all_benchmarks_validate;
  ]
