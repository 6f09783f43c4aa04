(* The scheduling daemon: protocol goldens, differential byte-identity
   against one-shot solves, admission control and batch semantics. *)

open Serve

let fresh ?(jobs = 1) ?(batch = 16) ?max_arena_bytes ?max_cache_bytes
    ?max_queue () =
  let d = Server.default_config () in
  Server.create
    ~config:
      {
        Server.jobs;
        batch;
        max_arena_bytes;
        max_cache_bytes =
          Option.value max_cache_bytes ~default:d.Server.max_cache_bytes;
        max_line_bytes = d.Server.max_line_bytes;
        max_queue = Option.value max_queue ~default:d.Server.max_queue;
        write_timeout_ms = d.Server.write_timeout_ms;
      }
    ()

(* Pull a field out of a response line. *)
let parse_response line =
  match Obs.Json.parse line with
  | Ok (Obs.Json.Obj fields) -> fields
  | Ok _ -> Alcotest.failf "response is not an object: %s" line
  | Error e ->
      Alcotest.failf "response is not JSON (%s): %s"
        (Obs.Json.error_to_string e) line

let result_field line k =
  match List.assoc_opt "result" (parse_response line) with
  | Some (Obs.Json.Obj r) -> List.assoc_opt k r
  | _ -> Alcotest.failf "response has no result object: %s" line

let error_code line =
  match List.assoc_opt "error" (parse_response line) with
  | Some (Obs.Json.Obj e) -> (
      match List.assoc_opt "code" e with
      | Some (Obs.Json.String c) -> c
      | _ -> Alcotest.failf "error without code: %s" line)
  | _ -> Alcotest.failf "response has no error object: %s" line

let is_ok line =
  match List.assoc_opt "ok" (parse_response line) with
  | Some (Obs.Json.Bool b) -> b
  | _ -> Alcotest.failf "response has no ok field: %s" line

(* ---- protocol goldens ---- *)

let test_ping () =
  let t = fresh () in
  Alcotest.(check string)
    "ping golden"
    {|{"id":1,"ok":true,"result":{"protocol":"pim-sched-serve/1"}}|}
    (Server.handle_line t {|{"id":1,"op":"ping"}|})

let test_parse_error () =
  let t = fresh () in
  let r = Server.handle_line t "{bad json" in
  Alcotest.(check bool) "not ok" false (is_ok r);
  Alcotest.(check string) "code" "parse-error" (error_code r);
  (match List.assoc_opt "error" (parse_response r) with
  | Some (Obs.Json.Obj e) ->
      Alcotest.(check bool)
        "offset present" true
        (List.assoc_opt "offset" e <> None)
  | _ -> Alcotest.fail "no error object");
  (* id is still correlated when the line is valid JSON but a bad request *)
  let r = Server.handle_line t {|{"id":7,"op":"launch-missiles"}|} in
  Alcotest.(check string) "unknown op" "bad-request" (error_code r);
  Alcotest.(check bool)
    "id echoed" true
    (List.assoc_opt "id" (parse_response r) = Some (Obs.Json.Int 7))

let test_bad_requests () =
  let t = fresh () in
  let check_code name line expected =
    let r = Server.handle_line t line in
    Alcotest.(check string) name expected (error_code r)
  in
  check_code "non-object" {|[1,2]|} "bad-request";
  check_code "unknown workload" {|{"id":1,"workload":"lu"}|} "bad-request";
  check_code "unknown algorithm"
    {|{"id":2,"workload":"1","algorithm":"magic"}|}
    "bad-request";
  check_code "unknown partition"
    {|{"id":3,"workload":"1","partition":"diagonal"}|}
    "bad-request";
  check_code "bad mesh" {|{"id":4,"mesh":{"rows":0}}|} "bad-request";
  check_code "bad fault node"
    {|{"id":5,"workload":"1","fault":{"dead_nodes":[99]}}|}
    "bad-request";
  check_code "typed field" {|{"id":6,"size":"big"}|} "bad-request"

(* There is one cost kernel: ["kernel":"naive"] is a typed bad-request
   naming the field, while [/1] clients spelling out ["separable"] are
   answered exactly as if the field were absent. *)
let test_kernel_field () =
  let t = fresh () in
  let solve extra =
    Server.handle_line t
      (Printf.sprintf {|{"id":1,"workload":"1","size":8,"algorithm":"gomcds"%s}|}
         extra)
  in
  let r = solve {|,"kernel":"naive"|} in
  Alcotest.(check string) "naive refused" "bad-request" (error_code r);
  (match List.assoc_opt "error" (parse_response r) with
  | Some (Obs.Json.Obj e) -> (
      match List.assoc_opt "message" e with
      | Some (Obs.Json.String m) ->
          Alcotest.(check bool)
            ("message names the field: " ^ m)
            true
            (String.starts_with ~prefix:{|field "kernel"|} m)
      | _ -> Alcotest.fail "error without message")
  | _ -> Alcotest.fail "no error object");
  let r = solve {|,"kernel":"separable"|} in
  Alcotest.(check bool) "separable accepted" true (is_ok r);
  Alcotest.(check bool)
    "same plan as without the field" true
    (result_field r "plan" = result_field (solve "") "plan")

let test_shutdown () =
  let t = fresh () in
  Alcotest.(check bool) "not stopping" false (Server.stopping t);
  let r = Server.handle_line t {|{"id":1,"op":"shutdown"}|} in
  Alcotest.(check string)
    "shutdown golden" {|{"id":1,"ok":true,"result":{"stopping":true}}|} r;
  Alcotest.(check bool) "stopping" true (Server.stopping t)

let test_solve_response_shape () =
  let t = fresh () in
  let r =
    Server.handle_line t
      {|{"id":42,"workload":"1","size":8,"algorithm":"scds"}|}
  in
  Alcotest.(check bool) "ok" true (is_ok r);
  Alcotest.(check bool)
    "algorithm" true
    (result_field r "algorithm" = Some (Obs.Json.String "scds"));
  List.iter
    (fun k ->
      match result_field r k with
      | Some (Obs.Json.Int _) -> ()
      | _ -> Alcotest.failf "result field %s missing or not an int" k)
    [ "total"; "reference"; "movement"; "moves" ];
  match result_field r "plan" with
  | Some (Obs.Json.String plan) ->
      (* the plan is a loadable Schedule_serial v1 text *)
      let s = Sched.Schedule_serial.of_string plan in
      Alcotest.(check int) "plan data" 64 (Sched.Schedule.n_data s)
  | _ -> Alcotest.fail "result has no plan string"

(* ---- differential byte-identity vs one-shot solves ---- *)

(* The served plan and cost must equal what a direct in-process solve of
   the same instance produces, with the [/1] ["kernel":"separable"] field
   spelled out or left off, with and without faults, and independently
   of the server's jobs setting. *)
let test_differential () =
  let mesh = Pim.Mesh.create ~rows:4 ~cols:4 in
  let trace =
    Workloads.Benchmarks.trace
      ~partition:Workloads.Iteration_space.Block_2d Workloads.Benchmarks.B1
      ~n:8 mesh
  in
  let policy =
    Sched.Problem.Bounded
      (Pim.Memory.capacity_for
         ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
         ~mesh ~headroom:2)
  in
  let dead_nodes = [ 5 ] in
  List.iter
    (fun (kernel_name, kernel_json) ->
      List.iter
        (fun faulty ->
          List.iter
            (fun alg_name ->
              let fault_json =
                if faulty then {|,"fault":{"dead_nodes":[5]}|} else ""
              in
              let line =
                Printf.sprintf
                  {|{"id":1,"workload":"1","size":8,"algorithm":"%s"%s%s}|}
                  alg_name kernel_json fault_json
              in
              let responses =
                List.map
                  (fun jobs -> Server.handle_line (fresh ~jobs ()) line)
                  [ 1; 4 ]
              in
              (match responses with
              | [ r1; r4 ] ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s/fault=%b: jobs-independent"
                       alg_name kernel_name faulty)
                    r1 r4
              | _ -> assert false);
              let r = List.hd responses in
              let fault =
                if faulty then
                  Pim.Fault.create ~dead_nodes ~dead_links:[] ()
                else Pim.Fault.none
              in
              let problem =
                Sched.Problem.create ~policy ~fault mesh trace
              in
              let schedule =
                Sched.Scheduler.solve problem
                  (Sched.Scheduler.of_name alg_name)
              in
              let expect_plan = Sched.Schedule_serial.to_string schedule in
              let breakdown = Sched.Schedule.cost schedule trace in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/fault=%b: plan bytes" alg_name
                   kernel_name faulty)
                true
                (result_field r "plan"
                = Some (Obs.Json.String expect_plan));
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/fault=%b: total" alg_name kernel_name
                   faulty)
                true
                (result_field r "total"
                = Some (Obs.Json.Int breakdown.Sched.Schedule.total)))
            [ "scds"; "gomcds" ])
        [ false; true ])
    [ ("default", ""); ("separable", {|,"kernel":"separable"|}) ]

(* An inline serialized trace must solve identically to the generated
   workload it came from. *)
let test_inline_trace () =
  let mesh = Pim.Mesh.create ~rows:4 ~cols:4 in
  let trace =
    Workloads.Stencil.trace ~partition:Workloads.Iteration_space.Block_2d
      ~n:8 ~sweeps:8 mesh
  in
  let text = Reftrace.Serial.to_string trace in
  let line =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("id", Obs.Json.Int 1);
           ("trace", Obs.Json.String text);
           ("algorithm", Obs.Json.String "lomcds");
         ])
  in
  let r = Server.handle_line (fresh ()) line in
  let generated =
    Server.handle_line (fresh ())
      {|{"id":1,"workload":"stencil","size":8,"algorithm":"lomcds"}|}
  in
  Alcotest.(check bool) "ok" true (is_ok r);
  Alcotest.(check bool)
    "inline plan = generated plan" true
    (result_field r "plan" = result_field generated "plan")

(* ---- timed replay ---- *)

(* A "timed":true solve must carry a timed object whose figures equal a
   direct in-process replay of the same schedule through the
   cycle-honest simulator, and the link_model knobs must reach it. *)
let test_timed_solve () =
  let mesh = Pim.Mesh.create ~rows:4 ~cols:4 in
  let trace =
    Workloads.Benchmarks.trace
      ~partition:Workloads.Iteration_space.Block_2d Workloads.Benchmarks.B1
      ~n:8 mesh
  in
  let policy =
    Sched.Problem.Bounded
      (Pim.Memory.capacity_for
         ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
         ~mesh ~headroom:2)
  in
  let schedule =
    Sched.Scheduler.solve
      (Sched.Problem.create ~policy mesh trace)
      Sched.Scheduler.Gomcds
  in
  let rounds = Sched.Schedule.to_rounds schedule trace in
  let timed_field r k =
    match result_field r k with
    | Some (Obs.Json.Obj timed) -> timed
    | _ -> Alcotest.failf "result has no timed object: %s" r
  in
  (* degenerate model: "timed":true with no link_model object *)
  let r =
    Server.handle_line (fresh ())
      {|{"id":1,"workload":"1","size":8,"algorithm":"gomcds","timed":true}|}
  in
  Alcotest.(check bool) "ok" true (is_ok r);
  let direct = Pim.Timed_simulator.run mesh rounds in
  let timed = timed_field r "timed" in
  Alcotest.(check bool)
    "cycles match direct replay" true
    (List.assoc_opt "cycles" timed
    = Some (Obs.Json.Int direct.Pim.Timed_simulator.total_cycles));
  Alcotest.(check bool)
    "volume_hops match direct replay" true
    (List.assoc_opt "volume_hops" timed
    = Some (Obs.Json.Int direct.Pim.Timed_simulator.total_volume_hops));
  Alcotest.(check bool)
    "energy match direct replay" true
    (List.assoc_opt "energy" timed
    = Some (Obs.Json.Float direct.Pim.Timed_simulator.energy));
  (* parameterized model: the knobs must reach the simulator *)
  let r2 =
    Server.handle_line (fresh ())
      {|{"id":2,"workload":"1","size":8,"algorithm":"gomcds","timed":true,"link_model":{"bandwidth":2,"queue_depth":1}}|}
  in
  Alcotest.(check bool) "parameterized ok" true (is_ok r2);
  let model = Pim.Link_model.create ~bandwidth:2 ~queue_depth:1 () in
  let direct2 = Pim.Timed_simulator.run ~model mesh rounds in
  let timed2 = timed_field r2 "timed" in
  Alcotest.(check bool)
    "parameterized cycles match" true
    (List.assoc_opt "cycles" timed2
    = Some (Obs.Json.Int direct2.Pim.Timed_simulator.total_cycles));
  Alcotest.(check bool)
    "parameterized stalls match" true
    (List.assoc_opt "queue_stall_cycles" timed2
    = Some (Obs.Json.Int direct2.Pim.Timed_simulator.queue_stall_cycles));
  (* an untimed solve must not carry the object *)
  let r3 =
    Server.handle_line (fresh ())
      {|{"id":3,"workload":"1","size":8,"algorithm":"gomcds"}|}
  in
  Alcotest.(check bool)
    "no timed object without the flag" true
    (result_field r3 "timed" = None)

let test_timed_rejections () =
  let t = fresh () in
  let check_code name line expected =
    let r = Server.handle_line t line in
    Alcotest.(check bool) (name ^ ": not ok") false (is_ok r);
    Alcotest.(check string) name expected (error_code r)
  in
  check_code "invalid link model"
    {|{"id":1,"workload":"1","timed":true,"link_model":{"bandwidth":0}}|}
    "bad-request";
  check_code "wormhole needs a flit width"
    {|{"id":2,"workload":"1","timed":true,"link_model":{"wormhole":true,"flit":0}}|}
    "bad-request";
  check_code "timed is single-mesh only"
    {|{"id":3,"workload":"1","size":8,"arrays":"2x2of4x4","timed":true}|}
    "bad-request";
  (* "timed":false is the same as absent, even with a link_model object *)
  Alcotest.(check bool)
    "timed:false ignored" true
    (is_ok
       (Server.handle_line t
          {|{"id":4,"workload":"1","size":8,"timed":false,"link_model":{"bandwidth":0}}|}))

(* ---- admission control ---- *)

let test_admission () =
  let t = fresh ~max_arena_bytes:64 () in
  let r = Server.handle_line t {|{"id":1,"workload":"1","size":8}|} in
  Alcotest.(check bool) "rejected" false (is_ok r);
  Alcotest.(check string) "code" "over-budget" (error_code r);
  (* non-solve ops are never admission-controlled *)
  Alcotest.(check bool)
    "ping still fine" true
    (is_ok (Server.handle_line t {|{"id":2,"op":"ping"}|}));
  (match Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "rejected counter" true
        (List.assoc_opt "rejected" fields = Some (Obs.Json.Int 1))
  | _ -> Alcotest.fail "stats is not an object");
  (* a generous budget admits the same request *)
  let t = fresh ~max_arena_bytes:(1 lsl 30) () in
  Alcotest.(check bool)
    "admitted" true
    (is_ok (Server.handle_line t {|{"id":1,"workload":"1","size":8}|}))

(* ---- batching ---- *)

(* One wave with mixed compatible/incompatible requests answers in request
   order, each response byte-identical to a lone solve on a fresh server. *)
let test_batch_order_and_identity () =
  let lines =
    [
      {|{"id":"a","workload":"1","size":8,"algorithm":"scds"}|};
      {|{"id":"b","op":"ping"}|};
      {|{"id":"c","workload":"1","size":8,"algorithm":"gomcds"}|};
      {|{"id":"d","workload":"stencil","size":8,"algorithm":"scds"}|};
      {|{"id":"e","workload":"1","size":8,"algorithm":"scds"}|};
    ]
  in
  let batched =
    List.map fst (Server.process_batch (fresh ~jobs:4 ()) lines)
  in
  let lone = List.map (fun l -> Server.handle_line (fresh ()) l) lines in
  List.iteri
    (fun i (b, l) ->
      Alcotest.(check string) (Printf.sprintf "request %d" i) l b)
    (List.combine batched lone);
  (* responses come back in request order: ids are echoed in sequence *)
  List.iteri
    (fun i r ->
      let expect = String.make 1 (Char.chr (Char.code 'a' + i)) in
      Alcotest.(check bool)
        (Printf.sprintf "order %d" i)
        true
        (List.assoc_opt "id" (parse_response r)
        = Some (Obs.Json.String expect)))
    batched

(* A repeated line re-solves on the cached context and answers
   byte-identically; another algorithm on the same instance shares that
   context too. *)
let test_repeat_and_context_reuse () =
  Obs.reset ();
  Obs.with_enabled @@ fun () ->
  let t = fresh () in
  let line = {|{"id":1,"workload":"1","size":8,"algorithm":"gomcds"}|} in
  let r1 = Server.handle_line t line in
  let r2 = Server.handle_line t line in
  Alcotest.(check string) "repeat answers identically" r1 r2;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (pair int int))
    "second request is a context hit" (1, 1)
    ( Obs.Metrics.counter snap "serve.context_misses",
      Obs.Metrics.counter snap "serve.context_hits" );
  (match Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "one context" true
        (List.assoc_opt "contexts" fields = Some (Obs.Json.Int 1));
      Alcotest.(check bool)
        "no memo fields" true
        (List.for_all
           (fun k -> not (List.mem_assoc k fields))
           [ "memo_entries"; "memo_hits" ])
  | _ -> Alcotest.fail "stats is not an object");
  let r3 =
    Server.handle_line t {|{"id":1,"workload":"1","size":8,"algorithm":"scds"}|}
  in
  Alcotest.(check bool) "different algorithm solves" true (is_ok r3);
  match Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "still one context" true
        (List.assoc_opt "contexts" fields = Some (Obs.Json.Int 1))
  | _ -> Alcotest.fail "stats is not an object"

(* ---- LRU ---- *)

let kv = Alcotest.(list (pair string int))

let test_lru () =
  let l = Lru.create ~budget:10 in
  Alcotest.(check int) "budget" 10 (Lru.budget l);
  Alcotest.check kv "no evictions" [] (Lru.add l "a" 1 ~bytes:4);
  ignore (Lru.add l "b" 2 ~bytes:4);
  Alcotest.(check int) "byte accounting" 8 (Lru.used_bytes l);
  (* touch a so b becomes the LRU victim *)
  Alcotest.(check (option int)) "find" (Some 1) (Lru.find l "a");
  Alcotest.check kv "b evicted" [ ("b", 2) ] (Lru.add l "c" 3 ~bytes:4);
  Alcotest.(check bool) "a survives" true (Lru.mem l "a");
  Alcotest.(check int) "eviction counted" 1 (Lru.evictions l);
  (* replacement re-weighs and is not an eviction *)
  ignore (Lru.add l "a" 9 ~bytes:2);
  Alcotest.(check int) "used after replace" 6 (Lru.used_bytes l);
  Alcotest.(check int) "replace not counted" 1 (Lru.evictions l);
  (* an entry heavier than the whole budget is not cached *)
  Alcotest.check kv "oversized not cached" [] (Lru.add l "huge" 0 ~bytes:11);
  Alcotest.(check bool) "huge absent" false (Lru.mem l "huge");
  Alcotest.(check int) "used unchanged" 6 (Lru.used_bytes l);
  Lru.remove l "c";
  Alcotest.(check int) "remove drops bytes" 2 (Lru.used_bytes l);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Lru.add: negative byte weight") (fun () ->
      ignore (Lru.add l "x" 0 ~bytes:(-1)));
  (* multi-eviction comes back least-recently-used first *)
  let l2 = Lru.create ~budget:10 in
  ignore (Lru.add l2 "x" 1 ~bytes:3);
  ignore (Lru.add l2 "y" 2 ~bytes:3);
  ignore (Lru.add l2 "z" 3 ~bytes:3);
  Alcotest.check kv "LRU-first order"
    [ ("x", 1); ("y", 2) ]
    (Lru.add l2 "w" 4 ~bytes:7)

(* ---- cancellation tokens ---- *)

let test_cancel_token () =
  Alcotest.(check bool)
    "none never expires" false
    (Sched.Cancel.expired Sched.Cancel.none);
  Alcotest.(check bool)
    "zero budget is born expired" true
    (Sched.Cancel.expired (Sched.Cancel.after ~budget_ms:0.));
  let c = Sched.Cancel.after ~budget_ms:600_000. in
  Alcotest.(check bool) "generous budget lives" false (Sched.Cancel.expired c);
  Sched.Cancel.cancel c;
  Alcotest.(check bool) "manual abort expires" true (Sched.Cancel.expired c);
  Alcotest.check_raises "check raises" Sched.Cancel.Expired (fun () ->
      Sched.Cancel.check c);
  Alcotest.check_raises "the none token cannot be cancelled"
    (Invalid_argument "Cancel.cancel: the none token") (fun () ->
      Sched.Cancel.cancel Sched.Cancel.none)

(* ---- deadlines ---- *)

let test_deadline () =
  let t = fresh () in
  (* a zero budget expires at admission, deterministically *)
  let r =
    Server.handle_line t {|{"id":1,"workload":"1","size":8,"deadline_ms":0}|}
  in
  Alcotest.(check bool) "not ok" false (is_ok r);
  Alcotest.(check string) "typed" "deadline-exceeded" (error_code r);
  (* a generous budget answers byte-identically to no deadline at all *)
  let plain =
    Server.handle_line (fresh ()) {|{"id":2,"workload":"1","size":8}|}
  in
  let budgeted =
    Server.handle_line (fresh ())
      {|{"id":2,"workload":"1","size":8,"deadline_ms":600000}|}
  in
  Alcotest.(check string) "deadline-blind answer" plain budgeted;
  (* expiry is counted, and the server keeps serving *)
  (match Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "counter" true
        (List.assoc_opt "deadline_exceeded" fields = Some (Obs.Json.Int 1))
  | _ -> Alcotest.fail "stats is not an object");
  Alcotest.(check bool)
    "still serving" true
    (is_ok (Server.handle_line t {|{"id":3,"workload":"1","size":8}|}));
  (* malformed budgets are rejected as bad requests *)
  Alcotest.(check string)
    "negative" "bad-request"
    (error_code
       (Server.handle_line t {|{"id":4,"workload":"1","deadline_ms":-5}|}));
  (* group instances honor deadlines too *)
  Alcotest.(check string)
    "group deadline" "deadline-exceeded"
    (error_code
       (Server.handle_line t
          {|{"id":5,"workload":"1","size":8,"arrays":"2x2of4x4","deadline_ms":0}|}))

let test_deadline_mid_solve () =
  let t = fresh () in
  (* warm the context so admission is instant, then burn the budget with
     an injected pre-solve delay: expiry fires at a poll point inside
     the solve, and the daemon survives it *)
  ignore (Server.handle_line t {|{"id":0,"workload":"1","size":8}|});
  Obs.Failpoint.clear ();
  Obs.Failpoint.configure "serve.solve=delay:30";
  (Fun.protect ~finally:Obs.Failpoint.clear @@ fun () ->
   let r =
     Server.handle_line t
       {|{"id":1,"workload":"1","size":8,"deadline_ms":5}|}
   in
   Alcotest.(check string) "expired in flight" "deadline-exceeded"
     (error_code r));
  (* the discarded session did not poison the warm pool *)
  let r =
    Server.handle_line t
      {|{"id":2,"workload":"1","size":8,"algorithm":"scds"}|}
  in
  Alcotest.(check bool) "solves after expiry" true (is_ok r)

(* ---- warm group problems ---- *)

let stat t k =
  match Server.stats_json t with
  | Obs.Json.Obj fields -> List.assoc_opt k fields
  | _ -> Alcotest.fail "stats is not an object"

let test_serve_warm_groups () =
  let line ?(extra = "") id alg =
    Printf.sprintf
      {|{"id":%d,"workload":"1","size":8,"arrays":"2x2of4x4","algorithm":"%s"%s}|}
      id alg extra
  in
  let faulted = {|,"fault":{"dead_arrays":[1],"dead_nodes":[3]}|} in
  let requests =
    [
      line 1 "gomcds";
      line 2 "scds";
      line 3 "gomcds-grouped";
      line ~extra:faulted 4 "gomcds";
      line 5 "gomcds";
      line ~extra:faulted 6 "lomcds";
    ]
  in
  let t = fresh () in
  List.iter
    (fun l ->
      let cold = fresh () in
      Alcotest.(check string)
        "warm group = cold rebuild"
        (Server.handle_line cold l)
        (Server.handle_line t l))
    requests;
  (* 1 -> 2 -> 3 -> 5 share one healthy key; 4 -> 6 the faulted one *)
  Alcotest.(check bool)
    "four warm group checkouts" true
    (stat t "warm_group_sessions" = Some (Obs.Json.Int 4));
  Alcotest.(check bool)
    "solo pool untouched" true
    (stat t "warm_sessions" = Some (Obs.Json.Int 0));
  Alcotest.(check bool)
    "two group entries parked" true
    (stat t "warm_entries" = Some (Obs.Json.Int 2))

(* A deadline that expires after its request finished never fires
   inside a later solve on the same warm group problem (the token is
   detached at check-in and re-armed per request). *)
let test_serve_warm_group_detaches_deadline () =
  let t = fresh () in
  let r1 =
    Server.handle_line t
      {|{"id":1,"workload":"1","size":8,"arrays":"2x2of4x4","algorithm":"scds","deadline_ms":100}|}
  in
  Alcotest.(check bool) "within budget" true (is_ok r1);
  Unix.sleepf 0.15;
  let r2 =
    Server.handle_line t
      {|{"id":2,"workload":"1","size":8,"arrays":"2x2of4x4","algorithm":"gomcds"}|}
  in
  Alcotest.(check bool) "warm solve ignores the stale deadline" true (is_ok r2);
  Alcotest.(check bool)
    "served warm" true
    (stat t "warm_group_sessions" = Some (Obs.Json.Int 1))

(* A failed group solve is discarded, never checked back in. *)
let test_serve_warm_group_discarded_on_failure () =
  let t = fresh () in
  let l id =
    Printf.sprintf
      {|{"id":%d,"workload":"1","size":8,"arrays":"2x2of4x4","algorithm":"gomcds","deadline_ms":5}|}
      id
  in
  Obs.Failpoint.clear ();
  Obs.Failpoint.configure "serve.solve=delay:30";
  (Fun.protect ~finally:Obs.Failpoint.clear @@ fun () ->
   Alcotest.(check string)
     "expired in flight" "deadline-exceeded"
     (error_code (Server.handle_line t (l 1))));
  Alcotest.(check bool)
    "nothing parked" true
    (stat t "warm_entries" = Some (Obs.Json.Int 0));
  let r =
    Server.handle_line t
      {|{"id":2,"workload":"1","size":8,"arrays":"2x2of4x4","algorithm":"gomcds"}|}
  in
  Alcotest.(check bool) "cold again" true (is_ok r);
  Alcotest.(check bool)
    "no warm checkout" true
    (stat t "warm_group_sessions" = Some (Obs.Json.Int 0))

(* A generator refusing its parameters is a typed bad request on both
   the single-mesh and the group path, never an internal error. *)
let test_generator_errors_typed () =
  let t = fresh () in
  let r =
    Server.handle_line t {|{"id":1,"workload":"fft","size":24,"algorithm":"scds"}|}
  in
  Alcotest.(check string) "single-mesh" "bad-request" (error_code r);
  let r =
    Server.handle_line t
      {|{"id":2,"workload":"fft","size":24,"arrays":"2x2of4x4","algorithm":"scds"}|}
  in
  Alcotest.(check string) "group" "bad-request" (error_code r);
  Alcotest.(check bool)
    "no crash counted" true
    (match Server.stats_json t with
    | Obs.Json.Obj f -> List.assoc_opt "task_crashes" f = Some (Obs.Json.Int 0)
    | _ -> false)

(* ---- fuzzing: hostile bytes must never crash the daemon ---- *)

let typed_codes =
  [
    "parse-error";
    "bad-request";
    "over-budget";
    "solve-error";
    "deadline-exceeded";
    "overloaded";
    "internal-error";
  ]

(* One long-lived server across the whole fuzz: survival means it keeps
   answering after every piece of garbage. *)
let fuzz_server = lazy (fresh ())

let survives line =
  let t = Lazy.force fuzz_server in
  let r = Server.handle_line t line in
  (match List.assoc_opt "ok" (parse_response r) with
  | Some (Obs.Json.Bool true) -> ()
  | Some (Obs.Json.Bool false) ->
      let c = error_code r in
      if not (List.mem c typed_codes) then
        Alcotest.failf "untyped error code %S for %S" c line
  | _ -> Alcotest.failf "response without ok field: %s" r);
  (* and the next request still works *)
  Server.handle_line t {|{"id":"probe","op":"ping"}|}
  = {|{"id":"probe","ok":true,"result":{"protocol":"pim-sched-serve/1"}}|}

let fuzz_garbage =
  QCheck.Test.make ~count:300 ~name:"serve fuzz: random bytes"
    (QCheck.string_gen_of_size QCheck.Gen.(int_range 0 160) QCheck.Gen.char)
    survives

let fuzz_truncation =
  QCheck.Test.make ~count:80 ~name:"serve fuzz: truncated requests"
    QCheck.(int_range 0 80)
    (fun k ->
      (* multi-byte characters make some cuts land mid-UTF-8-sequence *)
      let line =
        {|{"id":"héllo€","workload":"1","size":8,"algorithm":"gomcds"}|}
      in
      survives (String.sub line 0 (min k (String.length line))))

let fuzz_nesting =
  QCheck.Test.make ~count:20 ~name:"serve fuzz: pathological nesting"
    QCheck.(int_range 1 4096)
    (fun depth ->
      survives (String.make depth '[')
      && survives (String.make depth '{')
      && survives ({|{"id":|} ^ String.make depth '[' ^ "1"))

(* ---- failpoint matrix: every site x raise/delay ---- *)

(* Under an n=1 injection the faulted request is answered (typed or
   clean), the fault burns its budget, and a retry of the same request
   answers byte-identically to a failpoint-free server. *)
let test_failpoint_matrix () =
  let line = {|{"id":1,"workload":"1","size":8,"algorithm":"gomcds"}|} in
  Obs.Failpoint.clear ();
  let expected = Server.handle_line (fresh ()) line in
  List.iter
    (fun site ->
      List.iter
        (fun action ->
          let label = Printf.sprintf "%s=%s" site action in
          Obs.Failpoint.clear ();
          Obs.Failpoint.configure (Printf.sprintf "%s=%s,n=1" site action);
          Fun.protect ~finally:Obs.Failpoint.clear @@ fun () ->
          let t = fresh () in
          let first = Server.handle_line t line in
          (if is_ok first then
             Alcotest.(check string) (label ^ ": clean first") expected first
           else
             Alcotest.(check bool)
               (label ^ ": typed first") true
               (List.mem (error_code first) typed_codes));
          let second = Server.handle_line t line in
          Alcotest.(check string) (label ^ ": retry identical") expected second)
        [ "raise"; "delay:1" ])
    [ "serve.decode"; "serve.solve"; "engine.task" ]

(* ---- crash isolation inside one wave ---- *)

let test_crash_isolation_in_batch () =
  let lines =
    List.map
      (fun a ->
        Printf.sprintf {|{"id":"%s","workload":"1","size":8,"algorithm":"%s"}|}
          a a)
      [ "scds"; "lomcds"; "gomcds"; "lomcds-grouped" ]
  in
  Obs.Failpoint.clear ();
  let expected = List.map (fun l -> Server.handle_line (fresh ()) l) lines in
  Obs.Failpoint.configure "serve.solve=raise,n=1";
  let t = fresh ~jobs:4 () in
  let got =
    Fun.protect ~finally:Obs.Failpoint.clear @@ fun () ->
    List.map fst (Server.process_batch t lines)
  in
  let diffs =
    List.filter (fun (g, e) -> g <> e) (List.combine got expected)
  in
  (* exactly one request absorbed the crash; its wave-mates are
     byte-identical to their lone solves *)
  Alcotest.(check int) "one casualty" 1 (List.length diffs);
  List.iter
    (fun (g, _) ->
      Alcotest.(check string) "typed internal-error" "internal-error"
        (error_code g))
    diffs;
  (match Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "task_crashes counted" true
        (List.assoc_opt "task_crashes" fields = Some (Obs.Json.Int 1))
  | _ -> Alcotest.fail "stats is not an object");
  (* the wave did not poison the server *)
  Alcotest.(check bool)
    "serves on" true
    (is_ok (Server.handle_line t (List.hd lines)))

(* ---- bounded caches ---- *)

let test_cache_pressure () =
  let budget = 32 * 1024 in
  let t = fresh ~max_cache_bytes:budget () in
  let lines =
    List.init 12 (fun i ->
        Printf.sprintf
          {|{"id":%d,"workload":"1","size":%d,"algorithm":"scds"}|} i
          (6 + (2 * (i mod 4))))
  in
  let expected = List.map (fun l -> Server.handle_line (fresh ()) l) lines in
  let got = List.map (fun l -> Server.handle_line t l) lines in
  List.iter2
    (fun g e -> Alcotest.(check string) "identical under pressure" e g)
    got expected;
  match Server.stats_json t with
  | Obs.Json.Obj fields ->
      let geti k =
        match List.assoc_opt k fields with
        | Some (Obs.Json.Int i) -> i
        | _ -> -1
      in
      Alcotest.(check bool)
        "within budget" true
        (geti "cache_bytes" <= budget);
      Alcotest.(check bool) "evictions happened" true (geti "cache_evictions" > 0)
  | _ -> Alcotest.fail "stats is not an object"

let test_zero_cache_budget () =
  let t = fresh ~max_cache_bytes:0 () in
  let line = {|{"id":1,"workload":"1","size":8,"algorithm":"scds"}|} in
  let r1 = Server.handle_line t line in
  let r2 = Server.handle_line t line in
  Alcotest.(check string) "cacheless is still deterministic" r1 r2;
  Alcotest.(check string)
    "and identical to a cached server" r1
    (Server.handle_line (fresh ()) line);
  match Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "nothing cached" true
        (List.assoc_opt "cache_bytes" fields = Some (Obs.Json.Int 0))
  | _ -> Alcotest.fail "stats is not an object"

(* ---- the daemon loop over real pipes: line cap and overload ---- *)

let write_fd_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let test_run_line_cap_and_overload () =
  let d = Server.default_config () in
  let config =
    { d with Server.jobs = 1; batch = 2; max_queue = 2; max_line_bytes = 512 }
  in
  let t = Server.create ~config () in
  let solves =
    List.init 10 (fun i ->
        Printf.sprintf {|{"id":%d,"workload":"1","size":8,"algorithm":"scds"}|}
          i)
  in
  let input =
    String.concat ""
      (List.map (fun l -> l ^ "\n") solves @ [ String.make 1024 'x' ^ "\n" ])
  in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  (* pre-buffer the whole flood so the backlog the server sees — and so
     the shedding schedule — is deterministic: wave {0,1}, shed {2..8},
     wave {9, oversized} *)
  write_fd_all req_w input;
  Unix.close req_w;
  let srv =
    Domain.spawn (fun () ->
        Server.run t ~input:req_r ~output:resp_w;
        Unix.close resp_w;
        Unix.close req_r)
  in
  let ic = Unix.in_channel_of_descr resp_r in
  let responses = ref [] in
  (try
     while true do
       responses := input_line ic :: !responses
     done
   with End_of_file -> ());
  Domain.join srv;
  Unix.close resp_r;
  let responses = Array.of_list (List.rev !responses) in
  Alcotest.(check int) "every request answered" 11 (Array.length responses);
  Alcotest.(check bool) "first wave solved" true (is_ok responses.(0));
  for i = 2 to 8 do
    Alcotest.(check string)
      (Printf.sprintf "backlog line %d shed" i)
      "overloaded"
      (error_code responses.(i));
    (* shed responses still correlate ids and carry a retry hint *)
    match List.assoc_opt "error" (parse_response responses.(i)) with
    | Some (Obs.Json.Obj e) ->
        Alcotest.(check bool)
          "retry_after_ms" true
          (match List.assoc_opt "retry_after_ms" e with
          | Some (Obs.Json.Int ms) -> ms >= 1
          | _ -> false);
        Alcotest.(check bool)
          "id echoed" true
          (List.assoc_opt "id" (parse_response responses.(i))
          = Some (Obs.Json.Int i))
    | _ -> Alcotest.fail "no error object"
  done;
  Alcotest.(check bool) "tail of the queue solved" true (is_ok responses.(9));
  Alcotest.(check string)
    "oversized line typed" "parse-error"
    (error_code responses.(10));
  match Server.stats_json t with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "line_overflows" true
        (List.assoc_opt "line_overflows" fields = Some (Obs.Json.Int 1));
      Alcotest.(check bool)
        "overloaded count" true
        (List.assoc_opt "overloaded" fields = Some (Obs.Json.Int 7))
  | _ -> Alcotest.fail "stats is not an object"

(* ---- stats counters and their Obs mirrors ---- *)

(* One script that moves every counter [stats] reports — an error, an
   over-budget rejection, a deadline, a crash and a wave retry from
   failpoints, warm checkouts, then a line overflow and overload
   shedding through the daemon loop — after which each stats field must
   equal the Obs counter [serve.<field>]. *)
let test_stats_counters_match_obs () =
  Obs.Failpoint.clear ();
  Obs.reset ();
  Obs.with_enabled @@ fun () ->
  let d = Server.default_config () in
  let t =
    Server.create
      ~config:
        {
          d with
          Server.jobs = 2;
          batch = 2;
          max_queue = 2;
          max_line_bytes = 512;
          max_arena_bytes = Some 200_000;
        }
      ()
  in
  let solve = {|{"id":1,"workload":"1","size":8,"algorithm":"scds"}|} in
  let group =
    {|{"id":2,"workload":"1","size":8,"arrays":"2x2of4x4","algorithm":"scds"}|}
  in
  List.iter
    (fun (expect, failpoints, lines) ->
      Option.iter Obs.Failpoint.configure failpoints;
      let got =
        Fun.protect ~finally:Obs.Failpoint.clear (fun () ->
            Server.process_batch t lines)
      in
      List.iter2
        (fun e (r, _) ->
          Alcotest.(check string) r e (if is_ok r then "ok" else error_code r))
        expect got)
    [
      ([ "bad-request" ], None, [ {|{"id":3,"workload":"nope"}|} ]);
      ( [ "over-budget" ],
        None,
        [ {|{"id":4,"workload":"1","size":16,"mesh":{"rows":8,"cols":8}}|} ]
      );
      ( [ "deadline-exceeded" ],
        None,
        [ {|{"id":5,"workload":"1","deadline_ms":0}|} ] );
      ([ "internal-error" ], Some "serve.solve=raise,n=1", [ solve ]);
      (* a two-request wave reaches the engine's task boundary *)
      ([ "ok"; "ok" ], Some "engine.task=raise,n=1", [ solve; solve ]);
      ([ "ok" ], None, [ solve ]);
      ([ "ok" ], None, [ group ]);
      ([ "ok" ], None, [ group ]);
    ];
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  (* pre-buffered: wave {0,1}, shed {2,3}, wave {4, oversized} *)
  write_fd_all req_w
    (String.concat ""
       (List.init 5 (fun _ -> solve ^ "\n") @ [ String.make 1024 'x' ^ "\n" ]));
  Unix.close req_w;
  let srv =
    Domain.spawn (fun () ->
        Server.run t ~input:req_r ~output:resp_w;
        Unix.close resp_w;
        Unix.close req_r)
  in
  let ic = Unix.in_channel_of_descr resp_r in
  (try
     while true do
       ignore (input_line ic)
     done
   with End_of_file -> ());
  Domain.join srv;
  Unix.close resp_r;
  let snap = Obs.Metrics.snapshot () in
  List.iter
    (fun field ->
      match stat t field with
      | Some (Obs.Json.Int n) ->
          Alcotest.(check bool) (field ^ " moved") true (n > 0);
          Alcotest.(check int)
            (field ^ " = serve." ^ field)
            (Obs.Metrics.counter snap ("serve." ^ field))
            n
      | _ -> Alcotest.failf "stats has no counter %S" field)
    [
      "requests";
      "errors";
      "rejected";
      "batches";
      "warm_sessions";
      "warm_group_sessions";
      "overloaded";
      "deadline_exceeded";
      "task_crashes";
      "line_overflows";
      "wave_retries";
    ]

(* ---- chaos smoke (library-level, small instances) ---- *)

let test_chaos_small () =
  let script =
    List.init 6 (fun i ->
        Printf.sprintf {|{"id":%d,"workload":"1","size":8,"algorithm":"%s"}|} i
          (List.nth [ "scds"; "gomcds"; "lomcds" ] (i mod 3)))
  in
  let pass, report = Chaos.run ~seed:11 ~jobs:2 ~requests:8 ~script () in
  (if not pass then
     match report with
     | Obs.Json.Obj _ -> Alcotest.failf "chaos failed: %s" (Obs.Json.to_string report)
     | _ -> Alcotest.fail "chaos failed");
  match report with
  | Obs.Json.Obj fields -> (
      match List.assoc_opt "episodes" fields with
      | Some (Obs.Json.List eps) ->
          Alcotest.(check int) "all episodes ran" 10 (List.length eps)
      | _ -> Alcotest.fail "report without episodes")
  | _ -> Alcotest.fail "report is not an object"

let suite =
  [
    Gen.case "ping golden" test_ping;
    Gen.case "parse and op errors" test_parse_error;
    Gen.case "bad requests" test_bad_requests;
    Gen.case "shutdown" test_shutdown;
    Gen.case "solve response shape" test_solve_response_shape;
    Gen.case "differential vs one-shot (kernels x faults x jobs)"
      test_differential;
    Gen.case "inline trace matches generated" test_inline_trace;
    Gen.case "timed replay matches direct simulation" test_timed_solve;
    Gen.case "timed replay rejections" test_timed_rejections;
    Gen.case "admission control" test_admission;
    Gen.case "batch order and identity" test_batch_order_and_identity;
    Gen.case "repeat and context reuse" test_repeat_and_context_reuse;
    Gen.case "lru cache" test_lru;
    Gen.case "cancellation tokens" test_cancel_token;
    Gen.case "deadlines" test_deadline;
    Gen.case "deadline expires mid-solve" test_deadline_mid_solve;
    Gen.case "warm group problems = cold rebuilds" test_serve_warm_groups;
    Gen.case "warm group drops its deadline"
      test_serve_warm_group_detaches_deadline;
    Gen.case "failed group solve is discarded"
      test_serve_warm_group_discarded_on_failure;
    Gen.case "generator errors are bad requests" test_generator_errors_typed;
    Gen.to_alcotest fuzz_garbage;
    Gen.to_alcotest fuzz_truncation;
    Gen.to_alcotest fuzz_nesting;
    Gen.case "failpoint matrix (site x action)" test_failpoint_matrix;
    Gen.case "crash isolation inside a wave" test_crash_isolation_in_batch;
    Gen.case "bounded caches under pressure" test_cache_pressure;
    Gen.case "zero cache budget" test_zero_cache_budget;
    Gen.case "daemon loop: line cap and overload shedding"
      test_run_line_cap_and_overload;
    Gen.case "stats counters = Obs serve.* counters"
      test_stats_counters_match_obs;
    Gen.case "chaos episodes (small script)" test_chaos_small;
    Gen.case "kernel field: naive refused, separable accepted"
      test_kernel_field;
  ]
