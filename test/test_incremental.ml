(* Differential suite for the incremental scheduling core: a session
   reached by patching ([Problem.with_fault_patch]) or by in-place window
   editing ([Problem.invalidate]) must answer every scheduler
   byte-for-byte like a freshly built session — across mesh and torus,
   serial and parallel pools, node and link faults,
   and the serve daemon's warm-session pool. *)

let plan s = Sched.Schedule_serial.to_string s

(* Solve outcome as a comparable string: schedules compare by serialized
   plan, and a rejected instance must be rejected identically. *)
let solve_repr problem alg =
  match Sched.Scheduler.solve problem alg with
  | s -> "ok:" ^ plan s
  | exception Invalid_argument m -> "invalid:" ^ m
  | exception Assert_failure (file, line, _) ->
      (* Online's initial row-wise placement can land on a dead rank;
         what matters here is that warm and fresh sessions fail alike *)
      Printf.sprintf "assert:%s:%d" file line

let check_equiv name algs fresh warm =
  List.iter
    (fun alg ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s" name (Sched.Scheduler.name alg))
        (solve_repr fresh alg) (solve_repr warm alg))
    algs

(* Every dispatchable algorithm, including the two excluded from
   [Scheduler.all] (seeded so runs are reproducible). *)
let algorithms =
  Sched.Scheduler.all
  @ [ Sched.Scheduler.Annealing 0x5EED; Sched.Scheduler.Online 2.0 ]

(* The quick subset for QCheck properties: the three paper schedulers
   (bounded candidate consumers included), a merged-window consumer and
   the online heuristic. *)
let quick_algs =
  [
    Sched.Scheduler.Scds;
    Sched.Scheduler.Lomcds;
    Sched.Scheduler.Gomcds;
    Sched.Scheduler.Gomcds_grouped;
    Sched.Scheduler.Online 2.0;
  ]

let meshes =
  [ ("mesh", Pim.Mesh.square 4); ("torus", Pim.Mesh.torus ~rows:4 ~cols:4) ]

let lu mesh = Workloads.Benchmarks.trace Workloads.Benchmarks.B1 ~n:6 mesh
let node_fault = Pim.Fault.create ~dead_nodes:[ 5 ] ()

let link_fault =
  Pim.Fault.create ~dead_nodes:[ 5 ] ~dead_links:[ (0, 1); (9, 10) ] ()

(* ---- fault patches: the full scheduler x topology x jobs matrix on
   the LU benchmark ---- *)

let test_patch_matrix () =
  List.iter
    (fun (mname, mesh) ->
      let trace = lu mesh in
      List.iter
        (fun jobs ->
          let ctx = Sched.Context.create ~jobs mesh trace in
          let base = Sched.Problem.of_context ctx in
          (* warm the caches the patch will carry over *)
          Sched.Problem.prefetch_all base;
          ignore (Sched.Scheduler.solve base Sched.Scheduler.Gomcds);
          let tag f = Printf.sprintf "%s/j%d/%s" mname jobs f in
          (* healthy -> node fault: monotone, reprices no row *)
          let p1 = Sched.Problem.with_fault_patch base node_fault in
          check_equiv (tag "node") algorithms
            (Sched.Problem.of_context ~fault:node_fault ctx)
            p1;
          (* node fault -> node+link fault: monotone, BFS repricing *)
          let p2 = Sched.Problem.with_fault_patch p1 link_fault in
          check_equiv (tag "link") algorithms
            (Sched.Problem.of_context ~fault:link_fault ctx)
            p2;
          (* back to healthy: non-monotone, argmins and candidate lists
             must all drop *)
          let p3 = Sched.Problem.with_fault_patch p2 Pim.Fault.none in
          check_equiv (tag "heal") algorithms (Sched.Problem.of_context ctx) p3)
        [ 1; 4 ])
    meshes

(* ---- fault patches under a Bounded policy: the candidate lists the
   bounded schedulers consume come from the fill-skipping path when the
   session is healthy, and from slab rows otherwise — both must survive
   a patch ---- *)

let test_patch_bounded () =
  List.iter
    (fun (mname, mesh) ->
      let trace = lu mesh in
      let capacity =
        Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:6 mesh
      in
      let ctx =
        Sched.Context.create ~policy:(Sched.Problem.Bounded capacity) mesh
          trace
      in
      let base = Sched.Problem.of_context ctx in
      (* no prefetch: bounded solves on a healthy session exercise the
         fill-skipping candidates path *)
      ignore (Sched.Scheduler.solve base Sched.Scheduler.Lomcds);
      ignore (Sched.Scheduler.solve base Sched.Scheduler.Scds);
      let p1 = Sched.Problem.with_fault_patch base node_fault in
      check_equiv
        (Printf.sprintf "%s/bounded" mname)
        algorithms
        (Sched.Problem.of_context ~fault:node_fault ctx)
        p1)
    meshes

(* ---- window edits: a datum gaining its first reference in the edited
   window exercises the arena-drop path (its zero-width row layout is
   stale) ---- *)

let test_invalidate_new_datum () =
  let trace =
    Gen.trace Gen.mesh44 ~n_data:3
      [ [ (0, 0, 2); (1, 5, 1); (2, 3, 1) ]; [ (0, 1, 1); (1, 2, 4) ] ]
  in
  let ctx = Sched.Context.create Gen.mesh44 trace in
  let session = Sched.Problem.of_context ctx in
  Sched.Problem.prefetch_all session;
  ignore (Sched.Scheduler.solve session Sched.Scheduler.Gomcds);
  let w1 = Reftrace.Trace.window trace 1 in
  Reftrace.Window.add w1 ~data:2 ~proc:9 ~count:3;
  Sched.Problem.invalidate session ~window:1;
  check_equiv "new-datum edit" algorithms
    (Sched.Problem.of_context ctx)
    session

(* a pure node-fault patch dirties no row: the second prefetch over the
   patched session must refill nothing *)
let test_node_patch_refills_nothing () =
  Obs.enabled := true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.enabled := false)
    (fun () ->
      let trace = lu (Pim.Mesh.square 4) in
      let ctx = Sched.Context.create (Pim.Mesh.square 4) trace in
      let base = Sched.Problem.of_context ctx in
      Sched.Problem.prefetch_all base;
      let p1 = Sched.Problem.with_fault_patch base node_fault in
      Obs.reset ();
      Sched.Problem.prefetch_all p1;
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check int)
        "no rows refilled" 0
        (Obs.Metrics.counter snap "problem.rows_refilled");
      Alcotest.(check int)
        "no rows invalidated" 0
        (Obs.Metrics.counter snap "problem.rows_invalidated"))

(* ---- QCheck: random traces, random fault chains ---- *)

(* links of the 4x4 mesh (ascending endpoints, mix of axes) *)
let links44 = [ (0, 1); (1, 2); (4, 5); (5, 9); (10, 11); (2, 6); (14, 15) ]

let fault_gen =
  let open QCheck.Gen in
  list_size (int_range 0 3) (int_range 0 15) >>= fun nodes ->
  list_size (int_range 0 2) (oneofl links44) >>= fun links ->
  return
    (Pim.Fault.create
       ~dead_nodes:(List.sort_uniq compare nodes)
       ~dead_links:(List.sort_uniq compare links)
       ())

let fault_print f = Format.asprintf "%a" Pim.Fault.pp f

let prop_patch_equiv =
  QCheck.Test.make ~count:40
    ~name:"with_fault_patch = fresh session (random trace, fault chain)"
    (QCheck.make
       ~print:(fun (t, f1, f2) ->
         Printf.sprintf "%s / %s / %s" (Gen.trace_print t) (fault_print f1)
           (fault_print f2))
       QCheck.Gen.(
         triple
           (Gen.trace_gen ~max_data:10 ~max_windows:5 ~max_count:3 ())
           fault_gen fault_gen))
    (fun (trace, f1, f2) ->
      QCheck.assume (Pim.Fault.alive_count f1 Gen.mesh44 > 0);
      QCheck.assume (Pim.Fault.alive_count f2 Gen.mesh44 > 0);
      let ctx = Sched.Context.create Gen.mesh44 trace in
      let base = Sched.Problem.of_context ctx in
      ignore (Sched.Scheduler.solve base Sched.Scheduler.Gomcds);
      (* chain two arbitrary (not necessarily monotone) patches *)
      let p1 = Sched.Problem.with_fault_patch base f1 in
      let p2 = Sched.Problem.with_fault_patch p1 f2 in
      let fresh1 = Sched.Problem.of_context ~fault:f1 ctx in
      let fresh2 = Sched.Problem.of_context ~fault:f2 ctx in
      List.for_all
        (fun alg ->
          solve_repr p1 alg = solve_repr fresh1 alg
          && solve_repr p2 alg = solve_repr fresh2 alg)
        quick_algs)

let prop_invalidate_equiv =
  QCheck.Test.make ~count:40
    ~name:"invalidate = fresh session (random in-place window edit)"
    (QCheck.make
       ~print:(fun (t, _, _) -> Gen.trace_print t)
       QCheck.Gen.(
         triple
           (Gen.trace_gen ~max_data:10 ~max_windows:5 ~max_count:3 ())
           (int_range 0 1000)
           (list_size (int_range 1 6)
              (triple (int_range 0 1000) (int_range 0 15) (int_range 1 3)))))
    (fun (trace, wpick, edits) ->
      let ctx = Sched.Context.create Gen.mesh44 trace in
      let session = Sched.Problem.of_context ctx in
      Sched.Problem.prefetch_all session;
      ignore (Sched.Scheduler.solve session Sched.Scheduler.Gomcds);
      let nd = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let w = wpick mod Reftrace.Trace.n_windows trace in
      let window = Reftrace.Trace.window trace w in
      List.iter
        (fun (d, proc, count) ->
          Reftrace.Window.add window ~data:(d mod nd) ~proc ~count)
        edits;
      Sched.Problem.invalidate session ~window:w;
      (* the oracle is a session built fresh over the same (now edited)
         context — both see the same memoized merged window *)
      let fresh = Sched.Problem.of_context ctx in
      List.for_all
        (fun alg -> solve_repr session alg = solve_repr fresh alg)
        quick_algs)

(* ---- serve: warm-session checkout answers byte-identically ---- *)

let test_serve_warm_reuse () =
  let config =
    { (Serve.Server.default_config ()) with Serve.Server.memo = false; jobs = 1 }
  in
  let t = Serve.Server.create ~config () in
  let healthy = {|{"id":1,"workload":"1","size":8,"algorithm":"gomcds"}|} in
  let faulted =
    {|{"id":1,"workload":"1","size":8,"algorithm":"gomcds","fault":{"dead_nodes":[5]}}|}
  in
  let r1 = Serve.Server.handle_line t healthy in
  let r2 = Serve.Server.handle_line t healthy in
  (* warm repeat *)
  let r3 = Serve.Server.handle_line t faulted in
  (* warm session patched to the fault *)
  let r4 = Serve.Server.handle_line t healthy in
  (* patched back to healthy *)
  Alcotest.(check string) "warm repeat identical" r1 r2;
  Alcotest.(check string) "healed warm identical" r1 r4;
  let cold = Serve.Server.create ~config () in
  Alcotest.(check string)
    "patched = cold rebuild"
    (Serve.Server.handle_line cold faulted)
    r3;
  match Serve.Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "three warm checkouts" true
        (List.assoc_opt "warm_sessions" fields = Some (Obs.Json.Int 3));
      Alcotest.(check bool)
        "one warm entry parked" true
        (List.assoc_opt "warm_entries" fields = Some (Obs.Json.Int 1))
  | _ -> Alcotest.fail "stats is not an object"

let suite =
  [
    Gen.case "fault patch matrix (all schedulers)" test_patch_matrix;
    Gen.case "fault patch under Bounded policy" test_patch_bounded;
    Gen.case "invalidate: datum gains first reference" test_invalidate_new_datum;
    Gen.case "node patch refills no row" test_node_patch_refills_nothing;
    Gen.to_alcotest prop_patch_equiv;
    Gen.to_alcotest prop_invalidate_equiv;
    Gen.case "serve warm-session reuse" test_serve_warm_reuse;
  ]
