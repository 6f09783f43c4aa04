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

(* -- Golden traces ------------------------------------------------------- *)

(* MD5 of [Reftrace.Serial.to_string] for every generator and benchmark
   composite (B3-B5 go through [Trace.append] and [Trace.reversed]), over
   every partition, two sizes, and a square and a non-square mesh. The
   extra reduction case has more mesh rows than matrix rows, so its first
   bands emit nothing and its steps have gaps. *)
let generators =
  let open Workloads in
  [
    ("lu", fun ~partition ~n m -> Lu.trace ~partition ~n m);
    ("cholesky", fun ~partition ~n m -> Cholesky.trace ~partition ~n m);
    ("code", fun ~partition ~n m -> Code_kernel.trace ~partition ~n m);
    ( "stencil",
      fun ~partition ~n m -> Stencil.trace ~partition ~n ~sweeps:2 m );
    ("matmul", fun ~partition ~n m -> Matmul.trace ~partition ~n m);
    ("fft", fun ~partition ~n m -> Fft_transpose.trace ~partition ~n m);
    ( "reduction",
      fun ~partition ~n m -> Reduction.trace ~partition ~n ~bins:5 m );
    ( "closure",
      fun ~partition ~n m -> Transitive_closure.trace ~partition ~n m );
    ("wavefront", fun ~partition ~n m -> Wavefront.trace ~partition ~n m);
  ]
  @ List.map
      (fun b ->
        ( "b" ^ Workloads.Benchmarks.label b,
          fun ~partition ~n m -> Workloads.Benchmarks.trace ~partition b ~n m
        ))
      Workloads.Benchmarks.all

let golden =
  [
    ("lu/block-2d/n8/8x8", "e99bcc2d379a7383d65535f463f885db");
    ("lu/block-2d/n8/4x16", "972131ee307486a2727c73a398b6dbc5");
    ("lu/block-2d/n16/8x8", "b1be15d1461098f713171587591e8ddf");
    ("lu/block-2d/n16/4x16", "99aa058311d96c2f357fe077f556da60");
    ("lu/row-blocks/n8/8x8", "e99bcc2d379a7383d65535f463f885db");
    ("lu/row-blocks/n8/4x16", "e99bcc2d379a7383d65535f463f885db");
    ("lu/row-blocks/n16/8x8", "736439ec1f09712494bea1f42f672e8b");
    ("lu/row-blocks/n16/4x16", "736439ec1f09712494bea1f42f672e8b");
    ("lu/col-blocks/n8/8x8", "73e97312eb52a4b8ab3af4211ecb30d9");
    ("lu/col-blocks/n8/4x16", "73e97312eb52a4b8ab3af4211ecb30d9");
    ("lu/col-blocks/n16/8x8", "b2e446e4367e7dd07a17834c85575548");
    ("lu/col-blocks/n16/4x16", "b2e446e4367e7dd07a17834c85575548");
    ("lu/cyclic-2d/n8/8x8", "e99bcc2d379a7383d65535f463f885db");
    ("lu/cyclic-2d/n8/4x16", "b8bb56ecfbe3b41dc275ac3fc7fdd218");
    ("lu/cyclic-2d/n16/8x8", "aede092871076f29f64e643b73994beb");
    ("lu/cyclic-2d/n16/4x16", "5d16fcdc8360419697f3e10bc3c735fa");
    ("cholesky/block-2d/n8/8x8", "2473a46829a0b5ff74c16cf7692b543d");
    ("cholesky/block-2d/n8/4x16", "baf58292973460a96edf156fb9b4ab5d");
    ("cholesky/block-2d/n16/8x8", "6ed7f65d9e4bb9f4ad0ba21a7deee4b2");
    ("cholesky/block-2d/n16/4x16", "3333f7ca21c59e4e7ea0fa443c0e36b8");
    ("cholesky/row-blocks/n8/8x8", "2473a46829a0b5ff74c16cf7692b543d");
    ("cholesky/row-blocks/n8/4x16", "2473a46829a0b5ff74c16cf7692b543d");
    ("cholesky/row-blocks/n16/8x8", "4f06eb8cdfa5fd05dacf4a7392bdf8e1");
    ("cholesky/row-blocks/n16/4x16", "4f06eb8cdfa5fd05dacf4a7392bdf8e1");
    ("cholesky/col-blocks/n8/8x8", "9e4847ee0928ebeaf0acfdd35d43d6e3");
    ("cholesky/col-blocks/n8/4x16", "9e4847ee0928ebeaf0acfdd35d43d6e3");
    ("cholesky/col-blocks/n16/8x8", "ce8bdd6a6e6e7c08efda70f4dd1ab399");
    ("cholesky/col-blocks/n16/4x16", "ce8bdd6a6e6e7c08efda70f4dd1ab399");
    ("cholesky/cyclic-2d/n8/8x8", "2473a46829a0b5ff74c16cf7692b543d");
    ("cholesky/cyclic-2d/n8/4x16", "b57e5debf2c6f4e1d76c8feeacaf38b3");
    ("cholesky/cyclic-2d/n16/8x8", "9f669d821911c1efeb14dae0a76555c8");
    ("cholesky/cyclic-2d/n16/4x16", "2b7c29aeb27be549028fad3750abdd28");
    ("code/block-2d/n8/8x8", "2b563953d00bb2c4c3d24d560c480891");
    ("code/block-2d/n8/4x16", "198b34aa7980b7cf4d1eeefa692f0483");
    ("code/block-2d/n16/8x8", "f70ae3c76b1ea7879b9a773cc8fc900b");
    ("code/block-2d/n16/4x16", "1196e2b801133fe1ca21c84381464691");
    ("code/row-blocks/n8/8x8", "2b563953d00bb2c4c3d24d560c480891");
    ("code/row-blocks/n8/4x16", "2b563953d00bb2c4c3d24d560c480891");
    ("code/row-blocks/n16/8x8", "24b020bb5dfd4f334f6840dd88a55b34");
    ("code/row-blocks/n16/4x16", "24b020bb5dfd4f334f6840dd88a55b34");
    ("code/col-blocks/n8/8x8", "5d651606a58445b2ed3a057b67b9300e");
    ("code/col-blocks/n8/4x16", "5d651606a58445b2ed3a057b67b9300e");
    ("code/col-blocks/n16/8x8", "1c58fcaac7a5ce46274403f94c744912");
    ("code/col-blocks/n16/4x16", "1c58fcaac7a5ce46274403f94c744912");
    ("code/cyclic-2d/n8/8x8", "2b563953d00bb2c4c3d24d560c480891");
    ("code/cyclic-2d/n8/4x16", "10bfae02170deac3c476ee0194484113");
    ("code/cyclic-2d/n16/8x8", "115d6559f528d4dc6797cb980f9bbf0b");
    ("code/cyclic-2d/n16/4x16", "38727ed195418cff0f5a85a6fa1d128a");
    ("stencil/block-2d/n8/8x8", "59a20130d4be024b8b3adf8d38a44686");
    ("stencil/block-2d/n8/4x16", "2e55ba7843c3d00653d0ad9902471e53");
    ("stencil/block-2d/n16/8x8", "c64b0f3b77d1643e4dd6c71a2d55259a");
    ("stencil/block-2d/n16/4x16", "9507d58cc738595e48f0cc669aacadfc");
    ("stencil/row-blocks/n8/8x8", "59a20130d4be024b8b3adf8d38a44686");
    ("stencil/row-blocks/n8/4x16", "59a20130d4be024b8b3adf8d38a44686");
    ("stencil/row-blocks/n16/8x8", "f1215074867bb15bb0ffb84ddb7f5fde");
    ("stencil/row-blocks/n16/4x16", "f1215074867bb15bb0ffb84ddb7f5fde");
    ("stencil/col-blocks/n8/8x8", "b193d540d2f1daa027065af380c1f7d8");
    ("stencil/col-blocks/n8/4x16", "b193d540d2f1daa027065af380c1f7d8");
    ("stencil/col-blocks/n16/8x8", "835590adc660b1a1aa0e794f8934199f");
    ("stencil/col-blocks/n16/4x16", "835590adc660b1a1aa0e794f8934199f");
    ("stencil/cyclic-2d/n8/8x8", "59a20130d4be024b8b3adf8d38a44686");
    ("stencil/cyclic-2d/n8/4x16", "5eb9379d66848c2706c0e72fbe50e833");
    ("stencil/cyclic-2d/n16/8x8", "529a1302fcb4c1a24fbdbc0cc9807b8f");
    ("stencil/cyclic-2d/n16/4x16", "30d3285c523e5cc97b16afc328df6f00");
    ("matmul/block-2d/n8/8x8", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("matmul/block-2d/n8/4x16", "4787aa4f585fc39f42eebf8205d94279");
    ("matmul/block-2d/n16/8x8", "417e6eb6ada01d1bd9b85d632b2e2097");
    ("matmul/block-2d/n16/4x16", "9b04da7118b7fd40128105997d65fc83");
    ("matmul/row-blocks/n8/8x8", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("matmul/row-blocks/n8/4x16", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("matmul/row-blocks/n16/8x8", "dfa8050ba2d365df607b2163cd56ebf5");
    ("matmul/row-blocks/n16/4x16", "dfa8050ba2d365df607b2163cd56ebf5");
    ("matmul/col-blocks/n8/8x8", "d249eb74037df5702e61807812bb979c");
    ("matmul/col-blocks/n8/4x16", "d249eb74037df5702e61807812bb979c");
    ("matmul/col-blocks/n16/8x8", "c062aa590fd38a2a209682fb25d65271");
    ("matmul/col-blocks/n16/4x16", "c062aa590fd38a2a209682fb25d65271");
    ("matmul/cyclic-2d/n8/8x8", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("matmul/cyclic-2d/n8/4x16", "3a208d5d820811c3d850797641e8a2f4");
    ("matmul/cyclic-2d/n16/8x8", "dfa3952d7b211e2847586d3594e4f7f3");
    ("matmul/cyclic-2d/n16/4x16", "e27daf180ddd41dd263aa82c8560eb61");
    ("fft/block-2d/n8/8x8", "db2b39b1a45ddf17b2a6e78b899a596b");
    ("fft/block-2d/n8/4x16", "287d5f10406783a1f9cd7d9426506173");
    ("fft/block-2d/n16/8x8", "327eea24503481cc081bc288fd830ce7");
    ("fft/block-2d/n16/4x16", "7955b375099fd6c54a92fb372613fda7");
    ("fft/row-blocks/n8/8x8", "db2b39b1a45ddf17b2a6e78b899a596b");
    ("fft/row-blocks/n8/4x16", "db2b39b1a45ddf17b2a6e78b899a596b");
    ("fft/row-blocks/n16/8x8", "44ecfde222164e28b5c71a1aaf161e72");
    ("fft/row-blocks/n16/4x16", "44ecfde222164e28b5c71a1aaf161e72");
    ("fft/col-blocks/n8/8x8", "e384a21e1428d21bbd009586217f9cee");
    ("fft/col-blocks/n8/4x16", "e384a21e1428d21bbd009586217f9cee");
    ("fft/col-blocks/n16/8x8", "2bfb8b63802c5688ee7e4895bd3a266c");
    ("fft/col-blocks/n16/4x16", "2bfb8b63802c5688ee7e4895bd3a266c");
    ("fft/cyclic-2d/n8/8x8", "db2b39b1a45ddf17b2a6e78b899a596b");
    ("fft/cyclic-2d/n8/4x16", "976f97f807906ec23036e7e7b1766ca5");
    ("fft/cyclic-2d/n16/8x8", "c60709515e695aa6497e00614af137bc");
    ("fft/cyclic-2d/n16/4x16", "6136b7ff7030c7945afc9c5b0c89ae47");
    ("reduction/block-2d/n8/8x8", "e6f031678540499e25a198754627cea3");
    ("reduction/block-2d/n8/4x16", "ec8ff1b27d21f7b1383cf5bb7f4bc384");
    ("reduction/block-2d/n16/8x8", "88ff8942e4a11edca790481b43e0ea93");
    ("reduction/block-2d/n16/4x16", "3afe9c95361394bb1f28b157cdc678f7");
    ("reduction/block-2d/n4/8x8", "ec6188341d9aeabb6592aaf617b8c305");
    ("reduction/row-blocks/n8/8x8", "e6f031678540499e25a198754627cea3");
    ("reduction/row-blocks/n8/4x16", "9bc7a7b0d4842b1c1ca29b6d9d254a67");
    ("reduction/row-blocks/n16/8x8", "a90956a2f8242d8a89aef2d2213a8a71");
    ("reduction/row-blocks/n16/4x16", "aa77c4e6a2ce36283589f96c79145581");
    ("reduction/row-blocks/n4/8x8", "e724d4f3148a449c7b9137660dcb3b4c");
    ("reduction/col-blocks/n8/8x8", "30436578a5837039fa9971e65ecb6e92");
    ("reduction/col-blocks/n8/4x16", "91c894c77644a4ae822c2c55501235ff");
    ("reduction/col-blocks/n16/8x8", "b252772bdf46b655dc70df5e2ef7b50b");
    ("reduction/col-blocks/n16/4x16", "004a0b17db4e1cd096732b753cd18c06");
    ("reduction/col-blocks/n4/8x8", "95fcbbb9116562bf13e359bcd60b602f");
    ("reduction/cyclic-2d/n8/8x8", "e6f031678540499e25a198754627cea3");
    ("reduction/cyclic-2d/n8/4x16", "463a32bb99c8e160846a1d0c02c8fbec");
    ("reduction/cyclic-2d/n16/8x8", "95b4da24713155442b54037b81815075");
    ("reduction/cyclic-2d/n16/4x16", "a604139f2554158bf86c13410e65613c");
    ("reduction/cyclic-2d/n4/8x8", "fcaa6bf6212cb895418ca4101429c78e");
    ("closure/block-2d/n8/8x8", "4456204f6a2c8db1fef228b473b78090");
    ("closure/block-2d/n8/4x16", "0eaa36c4a35f5b282abc32aec8d46e77");
    ("closure/block-2d/n16/8x8", "9284fe1526c1b9aab862ac8d96627dcb");
    ("closure/block-2d/n16/4x16", "2819668295d26971b28f9873919d1d53");
    ("closure/row-blocks/n8/8x8", "4456204f6a2c8db1fef228b473b78090");
    ("closure/row-blocks/n8/4x16", "4456204f6a2c8db1fef228b473b78090");
    ("closure/row-blocks/n16/8x8", "adb4e7ffd448cdd47db64c2b767ca68f");
    ("closure/row-blocks/n16/4x16", "adb4e7ffd448cdd47db64c2b767ca68f");
    ("closure/col-blocks/n8/8x8", "686e17dfb3f14ef40bc36dfe757d9b2e");
    ("closure/col-blocks/n8/4x16", "686e17dfb3f14ef40bc36dfe757d9b2e");
    ("closure/col-blocks/n16/8x8", "b0b86daf2bcf1afe20eeac57883fe8a1");
    ("closure/col-blocks/n16/4x16", "b0b86daf2bcf1afe20eeac57883fe8a1");
    ("closure/cyclic-2d/n8/8x8", "4456204f6a2c8db1fef228b473b78090");
    ("closure/cyclic-2d/n8/4x16", "0e6d86291a197144c7defa5651f66995");
    ("closure/cyclic-2d/n16/8x8", "ce56acffb6e781caea93bd9c75324158");
    ("closure/cyclic-2d/n16/4x16", "6a27537c61417c5746606de995290d41");
    ("wavefront/block-2d/n8/8x8", "2be4cae1552b72a2cb25d2554eedcefb");
    ("wavefront/block-2d/n8/4x16", "7539c8c900077c0f15f77c9cca8d11d5");
    ("wavefront/block-2d/n16/8x8", "d80b59341c2e61e2cf2ab650a41e0ab0");
    ("wavefront/block-2d/n16/4x16", "e13237b4f3e792fba807ae1cc1ce461a");
    ("wavefront/row-blocks/n8/8x8", "2be4cae1552b72a2cb25d2554eedcefb");
    ("wavefront/row-blocks/n8/4x16", "2be4cae1552b72a2cb25d2554eedcefb");
    ("wavefront/row-blocks/n16/8x8", "120a59a4a68acc07ca9f3960c78dcd87");
    ("wavefront/row-blocks/n16/4x16", "120a59a4a68acc07ca9f3960c78dcd87");
    ("wavefront/col-blocks/n8/8x8", "0f843138adba290ef9984d62e7ceeba6");
    ("wavefront/col-blocks/n8/4x16", "0f843138adba290ef9984d62e7ceeba6");
    ("wavefront/col-blocks/n16/8x8", "f20db3f99cb4a3bfdb868a31bbdf3976");
    ("wavefront/col-blocks/n16/4x16", "f20db3f99cb4a3bfdb868a31bbdf3976");
    ("wavefront/cyclic-2d/n8/8x8", "2be4cae1552b72a2cb25d2554eedcefb");
    ("wavefront/cyclic-2d/n8/4x16", "61b1288f6aef8681cb6d7ea96cb983ec");
    ("wavefront/cyclic-2d/n16/8x8", "57df40e4fee9fb340641747abe43111a");
    ("wavefront/cyclic-2d/n16/4x16", "02cce2e47d82ebf2eeebf2ca67df7005");
    ("b1/block-2d/n8/8x8", "e99bcc2d379a7383d65535f463f885db");
    ("b1/block-2d/n8/4x16", "972131ee307486a2727c73a398b6dbc5");
    ("b1/block-2d/n16/8x8", "b1be15d1461098f713171587591e8ddf");
    ("b1/block-2d/n16/4x16", "99aa058311d96c2f357fe077f556da60");
    ("b1/row-blocks/n8/8x8", "e99bcc2d379a7383d65535f463f885db");
    ("b1/row-blocks/n8/4x16", "e99bcc2d379a7383d65535f463f885db");
    ("b1/row-blocks/n16/8x8", "736439ec1f09712494bea1f42f672e8b");
    ("b1/row-blocks/n16/4x16", "736439ec1f09712494bea1f42f672e8b");
    ("b1/col-blocks/n8/8x8", "73e97312eb52a4b8ab3af4211ecb30d9");
    ("b1/col-blocks/n8/4x16", "73e97312eb52a4b8ab3af4211ecb30d9");
    ("b1/col-blocks/n16/8x8", "b2e446e4367e7dd07a17834c85575548");
    ("b1/col-blocks/n16/4x16", "b2e446e4367e7dd07a17834c85575548");
    ("b1/cyclic-2d/n8/8x8", "e99bcc2d379a7383d65535f463f885db");
    ("b1/cyclic-2d/n8/4x16", "b8bb56ecfbe3b41dc275ac3fc7fdd218");
    ("b1/cyclic-2d/n16/8x8", "aede092871076f29f64e643b73994beb");
    ("b1/cyclic-2d/n16/4x16", "5d16fcdc8360419697f3e10bc3c735fa");
    ("b2/block-2d/n8/8x8", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("b2/block-2d/n8/4x16", "4787aa4f585fc39f42eebf8205d94279");
    ("b2/block-2d/n16/8x8", "417e6eb6ada01d1bd9b85d632b2e2097");
    ("b2/block-2d/n16/4x16", "9b04da7118b7fd40128105997d65fc83");
    ("b2/row-blocks/n8/8x8", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("b2/row-blocks/n8/4x16", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("b2/row-blocks/n16/8x8", "dfa8050ba2d365df607b2163cd56ebf5");
    ("b2/row-blocks/n16/4x16", "dfa8050ba2d365df607b2163cd56ebf5");
    ("b2/col-blocks/n8/8x8", "d249eb74037df5702e61807812bb979c");
    ("b2/col-blocks/n8/4x16", "d249eb74037df5702e61807812bb979c");
    ("b2/col-blocks/n16/8x8", "c062aa590fd38a2a209682fb25d65271");
    ("b2/col-blocks/n16/4x16", "c062aa590fd38a2a209682fb25d65271");
    ("b2/cyclic-2d/n8/8x8", "150a0fc5b27e1bc062ae7c4e40ed02ba");
    ("b2/cyclic-2d/n8/4x16", "3a208d5d820811c3d850797641e8a2f4");
    ("b2/cyclic-2d/n16/8x8", "dfa3952d7b211e2847586d3594e4f7f3");
    ("b2/cyclic-2d/n16/4x16", "e27daf180ddd41dd263aa82c8560eb61");
    ("b3/block-2d/n8/8x8", "7b7573e9b264f0311ff828ff4692c158");
    ("b3/block-2d/n8/4x16", "cc33623da4b0b31b9dda96fd1aafe5ad");
    ("b3/block-2d/n16/8x8", "3a6593e0fe61309619fec798cea035e4");
    ("b3/block-2d/n16/4x16", "22b13ad7ffcc1417f92d19e8b8034d40");
    ("b3/row-blocks/n8/8x8", "7b7573e9b264f0311ff828ff4692c158");
    ("b3/row-blocks/n8/4x16", "7b7573e9b264f0311ff828ff4692c158");
    ("b3/row-blocks/n16/8x8", "c2df36ba91212f6b1f8bcd8b72c0b243");
    ("b3/row-blocks/n16/4x16", "c2df36ba91212f6b1f8bcd8b72c0b243");
    ("b3/col-blocks/n8/8x8", "e25cef7a7ca675b9bad808d38b21ce28");
    ("b3/col-blocks/n8/4x16", "e25cef7a7ca675b9bad808d38b21ce28");
    ("b3/col-blocks/n16/8x8", "264ad2c62b6d387219c0449d1685d6df");
    ("b3/col-blocks/n16/4x16", "264ad2c62b6d387219c0449d1685d6df");
    ("b3/cyclic-2d/n8/8x8", "7b7573e9b264f0311ff828ff4692c158");
    ("b3/cyclic-2d/n8/4x16", "4e38ee736756e727dc87ddf0d93e2b63");
    ("b3/cyclic-2d/n16/8x8", "5ef9bffd52da2855b101af4b8f9528d4");
    ("b3/cyclic-2d/n16/4x16", "f9e98141d85d23da1452d114e7f554f6");
    ("b4/block-2d/n8/8x8", "d15d679eb2a1c44b99a71cdf4bac9051");
    ("b4/block-2d/n8/4x16", "fa780e2139d290a095b1908ef06180ed");
    ("b4/block-2d/n16/8x8", "4f26dac89eab8cd3371ad17bf154f053");
    ("b4/block-2d/n16/4x16", "d7c8f17a4bca62513c9004f04e154258");
    ("b4/row-blocks/n8/8x8", "d15d679eb2a1c44b99a71cdf4bac9051");
    ("b4/row-blocks/n8/4x16", "d15d679eb2a1c44b99a71cdf4bac9051");
    ("b4/row-blocks/n16/8x8", "6dc876e4c6ec3760239b5a8052fe6a1a");
    ("b4/row-blocks/n16/4x16", "6dc876e4c6ec3760239b5a8052fe6a1a");
    ("b4/col-blocks/n8/8x8", "b97e1216ce51fc4576047d945c80c76b");
    ("b4/col-blocks/n8/4x16", "b97e1216ce51fc4576047d945c80c76b");
    ("b4/col-blocks/n16/8x8", "074b6ad36f87e453d18bf2a9a6fa904a");
    ("b4/col-blocks/n16/4x16", "074b6ad36f87e453d18bf2a9a6fa904a");
    ("b4/cyclic-2d/n8/8x8", "d15d679eb2a1c44b99a71cdf4bac9051");
    ("b4/cyclic-2d/n8/4x16", "483b2d9a051c4e098511e20f91c8d117");
    ("b4/cyclic-2d/n16/8x8", "63e7f43a5323469e20ed84816e9a831a");
    ("b4/cyclic-2d/n16/4x16", "0ed0eefa6257d6cf0d832853029fb971");
    ("b5/block-2d/n8/8x8", "e8bca5b272669a1d87abd792abba9aa3");
    ("b5/block-2d/n8/4x16", "88871968bc7f6a3b918f69db8c6d7e7f");
    ("b5/block-2d/n16/8x8", "febe8b36f76f62ed15da7d9460442a00");
    ("b5/block-2d/n16/4x16", "c194400051a16c2f4d125282ba8d1ce0");
    ("b5/row-blocks/n8/8x8", "e8bca5b272669a1d87abd792abba9aa3");
    ("b5/row-blocks/n8/4x16", "e8bca5b272669a1d87abd792abba9aa3");
    ("b5/row-blocks/n16/8x8", "e871bd3f728838da2b928ceac5acb779");
    ("b5/row-blocks/n16/4x16", "e871bd3f728838da2b928ceac5acb779");
    ("b5/col-blocks/n8/8x8", "af2d15802cb5ec36a328ae0d95537288");
    ("b5/col-blocks/n8/4x16", "af2d15802cb5ec36a328ae0d95537288");
    ("b5/col-blocks/n16/8x8", "48895795d22c8dbd0132c3a7e6b477ae");
    ("b5/col-blocks/n16/4x16", "48895795d22c8dbd0132c3a7e6b477ae");
    ("b5/cyclic-2d/n8/8x8", "e8bca5b272669a1d87abd792abba9aa3");
    ("b5/cyclic-2d/n8/4x16", "9697cee3860d7bd903bb2dd62e634565");
    ("b5/cyclic-2d/n16/8x8", "508f1b676b20ea5ab5740a57f2ea3a11");
    ("b5/cyclic-2d/n16/4x16", "495664a70787aa3b031484fb1f60955a");
  ]

let test_golden_traces (name, gen) () =
  let shapes =
    List.concat_map (fun n -> [ (n, 8, 8); (n, 4, 16) ]) [ 8; 16 ]
    @ if name = "reduction" then [ (4, 8, 8) ] else []
  in
  List.iter
    (fun partition ->
      List.iter
        (fun (n, rows, cols) ->
          let key =
            Printf.sprintf "%s/%s/n%d/%dx%d" name
              (Workloads.Iteration_space.name partition)
              n rows cols
          in
          let t = gen ~partition ~n (Pim.Mesh.create ~rows ~cols) in
          Alcotest.(check string)
            key (List.assoc key golden)
            (Digest.to_hex (Digest.string (Reftrace.Serial.to_string t))))
        shapes)
    Workloads.Iteration_space.all

let test_golden_covers_every_pin () =
  check_int "pins" (List.length golden)
    (List.fold_left
       (fun acc (name, _) ->
         acc
         + (List.length Workloads.Iteration_space.all
           * if name = "reduction" then 5 else 4))
       0 generators)

(* -- Generation allocation ------------------------------------------------ *)

(* Heap words allocated per generated reference, from [Gc.allocated_bytes]
   (minor and major). Streaming each reference into the open window's log
   costs 28.5 (LU 32), 26.5 (matmul 16) and 26.7 (stencil 32, 4 sweeps)
   words on 8x8; consing an event list first and replaying it cost 50.4,
   46.5 and 48.1. *)
let words_per_reference gen =
  (* a major cycle on each side folds the domain's pending direct major
     allocations into the counters *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let t = gen () in
  Gc.full_major ();
  let after = Gc.allocated_bytes () in
  (after -. before) /. 8. /. float (Reftrace.Trace.total_references t)

let test_generation_allocation () =
  let m = Pim.Mesh.square 8 in
  List.iter
    (fun (name, gen) ->
      let words = words_per_reference gen in
      if words > 36. then
        Alcotest.failf "%s allocates %.1f words per reference (bound 36)" name
          words)
    [
      ("lu", fun () -> Workloads.Lu.trace ~n:32 m);
      ("matmul", fun () -> Workloads.Matmul.trace ~n:16 m);
      ("stencil", fun () -> Workloads.Stencil.trace ~n:32 ~sweeps:4 m);
    ]

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
    Gen.case "golden pins cover every case" test_golden_covers_every_pin;
    Gen.case "generation allocation per reference" test_generation_allocation;
  ]
  @ List.map
      (fun ((name, _) as g) ->
        Gen.case ("golden " ^ name) (test_golden_traces g))
      generators
