let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let profile_t = Alcotest.(list (pair int int))

let test_empty () =
  let w = Reftrace.Window.create ~n_data:4 in
  check_bool "empty" true (Reftrace.Window.is_empty w);
  check_int "total" 0 (Reftrace.Window.total_references w);
  Alcotest.(check (list int)) "no data" [] (Reftrace.Window.referenced_data w);
  check_int "max_proc" (-1) (Reftrace.Window.max_proc w)

let test_add_accumulates () =
  let w = Reftrace.Window.create ~n_data:2 in
  Reftrace.Window.add w ~data:0 ~proc:3 ~count:2;
  Reftrace.Window.add w ~data:0 ~proc:3 ~count:1;
  Reftrace.Window.add w ~data:0 ~proc:1 ~count:4;
  Alcotest.check profile_t "profile sorted by proc" [ (1, 4); (3, 3) ]
    (Reftrace.Window.profile w 0);
  check_int "references" 7 (Reftrace.Window.references w 0);
  check_int "other datum untouched" 0 (Reftrace.Window.references w 1)

let test_zero_count_noop () =
  let w = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add w ~data:0 ~proc:0 ~count:0;
  check_bool "still empty" true (Reftrace.Window.is_empty w)

let test_validation () =
  let w = Reftrace.Window.create ~n_data:1 in
  Alcotest.check_raises "bad data"
    (Invalid_argument "Window: data id 5 out of range") (fun () ->
      Reftrace.Window.add w ~data:5 ~proc:0 ~count:1);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Window.add: negative count") (fun () ->
      Reftrace.Window.add w ~data:0 ~proc:0 ~count:(-1))

let test_merge_sums () =
  let a = Gen.window ~n_data:2 [ (0, 1, 2); (1, 0, 1) ] in
  let b = Gen.window ~n_data:2 [ (0, 1, 3); (0, 2, 1) ] in
  let m = Reftrace.Window.merge a b in
  Alcotest.check profile_t "summed" [ (1, 5); (2, 1) ]
    (Reftrace.Window.profile m 0);
  Alcotest.check profile_t "carried" [ (0, 1) ] (Reftrace.Window.profile m 1);
  (* merge is non-destructive *)
  check_int "a untouched" 2 (Reftrace.Window.references a 0)

let test_merge_mismatched () =
  let a = Reftrace.Window.create ~n_data:1 in
  let b = Reftrace.Window.create ~n_data:2 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Window.merge: mismatched data spaces") (fun () ->
      ignore (Reftrace.Window.merge a b))

let test_merge_list () =
  let ws =
    List.init 3 (fun i -> Gen.window ~n_data:1 [ (0, i, i + 1) ])
  in
  let m = Reftrace.Window.merge_list ws in
  Alcotest.check profile_t "all merged" [ (0, 1); (1, 2); (2, 3) ]
    (Reftrace.Window.profile m 0)

let test_copy_independent () =
  let a = Gen.window ~n_data:1 [ (0, 0, 1) ] in
  let b = Reftrace.Window.copy a in
  Reftrace.Window.add b ~data:0 ~proc:0 ~count:5;
  check_int "original" 1 (Reftrace.Window.references a 0);
  check_int "copy" 6 (Reftrace.Window.references b 0)

let test_equal () =
  let a = Gen.window ~n_data:2 [ (0, 1, 2); (1, 3, 1) ] in
  let b = Gen.window ~n_data:2 [ (1, 3, 1); (0, 1, 2) ] in
  check_bool "order independent" true (Reftrace.Window.equal a b);
  Reftrace.Window.add b ~data:0 ~proc:1 ~count:1;
  check_bool "detects difference" false (Reftrace.Window.equal a b)

let prop_merge_commutative =
  let arb = Gen.single_datum_window_arbitrary ~max_count:5 () in
  QCheck.Test.make ~name:"merge is commutative" ~count:100 (QCheck.pair arb arb)
    (fun (a, b) ->
      Reftrace.Window.equal (Reftrace.Window.merge a b)
        (Reftrace.Window.merge b a))

let prop_merge_total_references_additive =
  let arb = Gen.single_datum_window_arbitrary ~max_count:5 () in
  QCheck.Test.make ~name:"merge adds reference counts" ~count:100
    (QCheck.pair arb arb) (fun (a, b) ->
      Reftrace.Window.total_references (Reftrace.Window.merge a b)
      = Reftrace.Window.total_references a
        + Reftrace.Window.total_references b)

let test_kinds_separate_profiles () =
  let w = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add w ~data:0 ~proc:2 ~count:3;
  Reftrace.Window.add ~kind:Reftrace.Window.Write w ~data:0 ~proc:5 ~count:2;
  Alcotest.check profile_t "reads" [ (2, 3) ] (Reftrace.Window.read_profile w 0);
  Alcotest.check profile_t "writes" [ (5, 2) ]
    (Reftrace.Window.write_profile w 0);
  Alcotest.check profile_t "combined" [ (2, 3); (5, 2) ]
    (Reftrace.Window.profile w 0);
  check_int "references counts both" 5 (Reftrace.Window.references w 0);
  check_int "writes" 2 (Reftrace.Window.writes w 0)

let test_kinds_same_proc_combine () =
  let w = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add w ~data:0 ~proc:4 ~count:1;
  Reftrace.Window.add ~kind:Reftrace.Window.Write w ~data:0 ~proc:4 ~count:2;
  Alcotest.check profile_t "summed at proc" [ (4, 3) ]
    (Reftrace.Window.profile w 0)

let test_equal_distinguishes_kinds () =
  let a = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add a ~data:0 ~proc:1 ~count:1;
  let b = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add ~kind:Reftrace.Window.Write b ~data:0 ~proc:1 ~count:1;
  check_bool "same combined, different kinds" false
    (Reftrace.Window.equal a b)

let test_merge_preserves_kinds () =
  let a = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add ~kind:Reftrace.Window.Write a ~data:0 ~proc:3 ~count:1;
  let b = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add b ~data:0 ~proc:3 ~count:1;
  let m = Reftrace.Window.merge a b in
  Alcotest.check profile_t "write kept" [ (3, 1) ]
    (Reftrace.Window.write_profile m 0);
  Alcotest.check profile_t "read kept" [ (3, 1) ]
    (Reftrace.Window.read_profile m 0)

(* ---- the runs against the hashtable oracle ---- *)

module W = Reftrace.Window
module O = Oracle.Window

(* A random add sequence over 4 data and ranks 0..19: zero counts and
   repeated ranks are frequent, and about a third of adds are writes. *)
let adds_gen =
  let open QCheck.Gen in
  list_size (int_range 0 40)
    (quad (int_range 0 3) (int_range 0 19) (int_range 0 4)
       (map (fun k -> k = 0) (int_range 0 2)))

let adds_print =
  QCheck.Print.list (fun (d, p, c, w) ->
      Printf.sprintf "%s %d %d %d" (if w then "write" else "ref") d p c)

let kind_of write = if write then W.Write else W.Read

let build adds =
  let w = W.create ~n_data:4 and o = O.create ~n_data:4 in
  List.iter
    (fun (data, proc, count, write) ->
      W.add ~kind:(kind_of write) w ~data ~proc ~count;
      O.add ~kind:(kind_of write) o ~data ~proc ~count)
    adds;
  (w, o)

let prop_views_match_oracle =
  QCheck.Test.make ~name:"every per-datum view matches the oracle" ~count:300
    (QCheck.make ~print:adds_print adds_gen) (fun adds ->
      let w, o = build adds in
      O.agrees o w && O.agrees (O.copy o) (W.copy w))

(* The second sequence is a shuffle of the first (equal windows whose
   runs grew in a different order), the first with one add changed, or
   unrelated. *)
let pair_gen =
  let open QCheck.Gen in
  adds_gen >>= fun a ->
  oneof
    [
      map (fun b -> (a, b)) (shuffle_l a);
      (match a with
      | [] -> return (a, [ (0, 0, 1, false) ])
      | (d, p, c, k) :: rest ->
          map
            (fun flip ->
              let changed =
                if flip then (d, p, c, not k) else (d, p, c + 1, k)
              in
              (a, changed :: rest))
            bool);
      map (fun b -> (a, b)) adds_gen;
    ]

let prop_equal_matches_oracle =
  QCheck.Test.make ~name:"equal matches the oracle" ~count:300
    (QCheck.make
       ~print:(QCheck.Print.pair adds_print adds_print)
       pair_gen)
    (fun (a, b) ->
      let wa, oa = build a and wb, ob = build b in
      W.equal wa wb = O.equal oa ob && W.equal wb wa = O.equal ob oa)

let prop_merge_list_is_left_fold =
  QCheck.Test.make ~name:"merge_list equals the left fold of merge" ~count:200
    (QCheck.make
       ~print:(QCheck.Print.list adds_print)
       QCheck.Gen.(list_size (int_range 1 6) adds_gen))
    (fun specs ->
      let built = List.map build specs in
      let ws = List.map fst built and os = List.map snd built in
      let merged = W.merge_list ws in
      let folded =
        List.fold_left W.merge (W.copy (List.hd ws)) (List.tl ws)
      in
      W.equal merged folded
      && O.agrees (O.merge_list os) merged
      (* the inputs are left untouched *)
      && List.for_all2 O.agrees os ws)

let prop_iter_kind_sums_match_oracle =
  QCheck.Test.make ~name:"iter_kind_profile folds match the oracle" ~count:300
    (QCheck.make ~print:adds_print adds_gen) (fun adds ->
      let w, o = build adds in
      let fold iter kind data =
        let n = ref 0 and weighted = ref 0 in
        iter ~kind data (fun ~proc ~count ->
            n := !n + count;
            weighted := !weighted + ((proc + 1) * count));
        (!n, !weighted)
      in
      List.for_all
        (fun kind ->
          List.for_all
            (fun data ->
              fold (W.iter_kind_profile w) kind data
              = fold (O.iter_kind_profile o) kind data)
            [ 0; 1; 2; 3 ])
        [ W.Read; W.Write ])

(* The builder's compaction against [add] replayed one reference at a
   time and against the oracle — at ranks 0..19 (counting pass) and at
   the same ranks spread 10^9 apart (comparison-sort pass). *)
let prop_builder_matches_add =
  QCheck.Test.make ~name:"Builder.build equals add replay and the oracle"
    ~count:300
    (QCheck.make ~print:adds_print adds_gen) (fun adds ->
      List.for_all
        (fun spread ->
          let adds =
            List.map (fun (d, p, c, k) -> (d, p * spread, c, k)) adds
          in
          let b = W.Builder.create ~n_data:4 in
          List.iter
            (fun (data, proc, count, write) ->
              W.Builder.add ~kind:(kind_of write) b ~data ~proc ~count)
            adds;
          let built = W.Builder.build b and w, o = build adds in
          W.equal built w && O.agrees o built)
        [ 1; 1_000_000_000 ])

let test_builder_validation () =
  let b = W.Builder.create ~n_data:2 in
  Alcotest.check_raises "bad data"
    (Invalid_argument "Window: data id 2 out of range") (fun () ->
      W.Builder.add b ~data:2 ~proc:0 ~count:1);
  Alcotest.check_raises "negative rank"
    (Invalid_argument "Window.add: negative processor rank") (fun () ->
      W.Builder.add b ~data:0 ~proc:(-1) ~count:1);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Window.add: negative count") (fun () ->
      W.Builder.add b ~data:0 ~proc:0 ~count:(-1));
  Alcotest.check_raises "empty space"
    (Invalid_argument "Window.create: n_data must be positive") (fun () ->
      ignore (W.Builder.create ~n_data:0))

(* A built window takes further edits, and a copy taken before an edit
   (which shares the runs) does not see it. *)
let test_add_after_build () =
  let b = W.Builder.create ~n_data:2 in
  W.Builder.add b ~data:0 ~proc:5 ~count:2;
  W.Builder.add ~kind:W.Write b ~data:0 ~proc:1 ~count:1;
  let w = W.Builder.build b in
  let before = W.copy w in
  W.add w ~data:0 ~proc:3 ~count:4;
  W.add ~kind:W.Write w ~data:0 ~proc:5 ~count:1;
  W.add w ~data:1 ~proc:9 ~count:1;
  Alcotest.check profile_t "edited" [ (1, 1); (3, 4); (5, 3) ] (W.profile w 0);
  Alcotest.check profile_t "writes" [ (1, 1); (5, 1) ] (W.write_profile w 0);
  check_int "new datum" 1 (W.references w 1);
  Alcotest.check profile_t "copy unchanged" [ (1, 1); (5, 2) ]
    (W.profile before 0);
  check_int "copy total" 3 (W.references before 0)

(* A window whose runs are its own holds exactly what [bytes] says. *)
let test_bytes_reachable () =
  let mesh = Pim.Mesh.square 8 in
  List.iter
    (fun w ->
      check_int "bytes = reachable" (8 * Obj.reachable_words (Obj.repr w))
        (W.bytes w))
    (W.create ~n_data:3
    :: Reftrace.Trace.windows (Workloads.Lu.trace ~n:8 mesh))

(* The context charge [Sched.Context.bytes] (what serve's cache is
   charged) is within 2x of what the context actually holds, and a
   16x16 LU context stays under 1 MiB: windows cost their nonzeros, not
   the mesh's width. *)
let test_context_bytes_honest () =
  let block = Workloads.Iteration_space.Block_2d in
  let m8 = Pim.Mesh.square 8 and m16 = Pim.Mesh.square 16 in
  let cases =
    [
      ("LU 16 on 8x8", m8, Workloads.Lu.trace ~n:16 m8);
      ("LU 16 on 16x16", m16, Workloads.Lu.trace ~n:16 m16);
      ( "benchmark 2, n=16, on 16x16",
        m16,
        Workloads.Benchmarks.trace ~partition:block Workloads.Benchmarks.B2
          ~n:16 m16 );
      ( "stencil 16 on 16x16",
        m16,
        Workloads.Stencil.trace ~partition:block ~n:16 ~sweeps:8 m16 );
    ]
  in
  List.iter
    (fun (name, mesh, trace) ->
      let ctx = Sched.Context.create mesh trace in
      let reachable = 8 * Obj.reachable_words (Obj.repr ctx) in
      let charged = Sched.Context.bytes ctx in
      check_bool
        (Printf.sprintf "%s: charge %d within 2x of %d reachable" name charged
           reachable)
        true
        (charged <= 2 * reachable && reachable <= 2 * charged))
    cases;
  let ctx = Sched.Context.create m16 (Workloads.Lu.trace ~n:16 m16) in
  let reachable = 8 * Obj.reachable_words (Obj.repr ctx) in
  check_bool
    (Printf.sprintf "LU 16 on 16x16 context: %d bytes reachable < 1 MiB"
       reachable)
    true
    (reachable < 1024 * 1024)

let test_merge_list_mismatched () =
  let a = W.create ~n_data:2 and b = W.create ~n_data:2 in
  let c = W.create ~n_data:3 in
  Alcotest.check_raises "mismatch in the tail"
    (Invalid_argument "Window.merge: mismatched data spaces") (fun () ->
      ignore (W.merge_list [ a; b; c ]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Window.merge_list: empty list") (fun () ->
      ignore (W.merge_list []))

let suite =
  [
    Gen.case "empty" test_empty;
    Gen.case "kinds separate profiles" test_kinds_separate_profiles;
    Gen.case "kinds same proc combine" test_kinds_same_proc_combine;
    Gen.case "equal distinguishes kinds" test_equal_distinguishes_kinds;
    Gen.case "merge preserves kinds" test_merge_preserves_kinds;
    Gen.case "add accumulates" test_add_accumulates;
    Gen.case "zero count noop" test_zero_count_noop;
    Gen.case "validation" test_validation;
    Gen.case "merge sums" test_merge_sums;
    Gen.case "merge mismatched" test_merge_mismatched;
    Gen.case "merge_list" test_merge_list;
    Gen.case "copy independent" test_copy_independent;
    Gen.case "equal" test_equal;
    Gen.to_alcotest prop_merge_commutative;
    Gen.to_alcotest prop_merge_total_references_additive;
    Gen.case "merge_list mismatched" test_merge_list_mismatched;
    Gen.to_alcotest prop_views_match_oracle;
    Gen.to_alcotest prop_equal_matches_oracle;
    Gen.to_alcotest prop_merge_list_is_left_fold;
    Gen.to_alcotest prop_iter_kind_sums_match_oracle;
    Gen.to_alcotest prop_builder_matches_add;
    Gen.case "builder validation" test_builder_validation;
    Gen.case "add after build" test_add_after_build;
    Gen.case "bytes = reachable words" test_bytes_reachable;
    Gen.case "context charge is honest" test_context_bytes_honest;
  ]
