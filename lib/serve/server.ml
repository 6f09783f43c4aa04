type config = {
  jobs : int;
  batch : int;
  max_arena_bytes : int option;
  max_cache_bytes : int;
  max_line_bytes : int;
  max_queue : int;
  write_timeout_ms : float;
}

let default_config () =
  {
    jobs = Sched.Engine.default_jobs ();
    batch = 16;
    max_arena_bytes = None;
    max_cache_bytes = 256 * 1024 * 1024;
    max_line_bytes = 4 * 1024 * 1024;
    max_queue = 1024;
    write_timeout_ms = 5_000.;
  }

(* Chaos hooks on the request path. All no-ops (one ref read) until a
   failpoint schedule is armed; see DESIGN.md "Chaos engineering". *)
let fp_read = Obs.Failpoint.site "serve.read"
let fp_decode = Obs.Failpoint.site "serve.decode"
let fp_solve = Obs.Failpoint.site "serve.solve"
let fp_write = Obs.Failpoint.site "serve.write"

(* A pooled warm session: a solved single-mesh [Problem] (keyed by its
   context key, patched to each request's fault) or a solved group
   problem (keyed by instance, arrays and fault spec, reused as is). *)
type session = Solo of Sched.Problem.t | Group of Multi.Group_problem.t

type t = {
  config : config;
  (* shared immutable halves, keyed by canonical instance key; every
     request with the same mesh/trace/policy reuses the entry.
     Byte-accounted LRU: a cold key landing in a full cache evicts the
     least-recently-served instances (and their warm sessions). *)
  contexts : Sched.Context.t Lru.t;
  (* warm sessions: context key -> last solved Problem session. A repeat
     instance (possibly under a different fault) is answered by patching
     the checked-out session ([Problem.with_fault_patch]) instead of
     opening a cold one, so only slab rows the fault change repriced are
     refilled. Checkout happens in the serial prepare pass and check-in
     after the wave, so the table has a single writer and no session is
     ever shared by two in-flight solves. Sessions are the heavy entries
     (their weight is the full-force arena bound), so they get the
     largest cache share. Group problems pool here too: a repeat group
     instance under the same fault spec reuses the solved member
     sessions, trace projection and weight tables wholesale. *)
  warm : session Lru.t;
  (* event counters by name, written only on the single-writer paths;
     [stats] reads them and Obs mirrors them as [serve.<name>] *)
  counts : (string, int) Hashtbl.t;
  mutable last_wave_ms : float; (* the overloaded retry_after_ms hint *)
  mutable stopping : bool;
}

let create ?config () =
  let config = match config with Some c -> c | None -> default_config () in
  if config.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  if config.batch < 1 then invalid_arg "Server.create: batch must be >= 1";
  if config.max_cache_bytes < 0 then
    invalid_arg "Server.create: max_cache_bytes must be >= 0";
  if config.max_line_bytes < 1 then
    invalid_arg "Server.create: max_line_bytes must be >= 1";
  if config.max_queue < 0 then
    invalid_arg "Server.create: max_queue must be >= 0";
  if config.write_timeout_ms <= 0. then
    invalid_arg "Server.create: write_timeout_ms must be positive";
  let b = config.max_cache_bytes in
  {
    config;
    (* split of the byte budget: warm sessions are the point of the
       server (and the heaviest entries), contexts amortize instance
       preprocessing. The shares sum to 7/8, so [max_cache_bytes] is a
       bound on the two caches together, not a target. *)
    contexts = Lru.create ~budget:(b / 2);
    warm = Lru.create ~budget:(b * 3 / 8);
    counts = Hashtbl.create 16;
    last_wave_ms = 1.;
    stopping = false;
  }

let counter t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

let count ?(n = 1) t name =
  Hashtbl.replace t.counts name (counter t name + n);
  if !Obs.enabled then Obs.Metrics.add ("serve." ^ name) n

let note_evictions t = function
  | [] -> ()
  | l -> count ~n:(List.length l) t "cache_evictions"

(* ---------------------------------------------------------------- *)
(* Instances                                                         *)
(* ---------------------------------------------------------------- *)

(* Built on a cache miss only; a refused instance is a [bad-request]. *)
let build_instance spec =
  match Instance.build spec with
  | i -> i
  | exception Invalid_argument m -> Protocol.reject m

(* The canonical key naming a shared context: everything the immutable
   half depends on. Inline traces key by content digest, so two clients
   shipping the same trace text share one context. *)
let context_key (spec : Protocol.instance) =
  let source =
    match spec.trace_text with
    | Some text -> Printf.sprintf "trace:%s" (Digest.to_hex (Digest.string text))
    | None ->
        Printf.sprintf "w:%s;n:%d;p:%s" spec.workload spec.size
          spec.partition
  in
  Printf.sprintf "%s;mesh:%dx%d;torus:%b;unb:%b" source spec.mesh.rows
    spec.mesh.cols spec.mesh.torus spec.unbounded

(* Cache weight of a shared context: the axis tables plus a slice of the
   arena bound as a proxy for the trace and window structures. An estimate — the LRU
   budget is a shedding threshold, not an allocator. *)
let context_bytes (ctx : Sched.Context.t) =
  let mesh = ctx.Sched.Context.mesh in
  let cols = Pim.Mesh.cols mesh and rows = Pim.Mesh.rows mesh in
  let axis = 8 * 2 * ((cols * cols) + (rows * rows)) in
  axis + (ctx.Sched.Context.max_arena_bytes / 8) + 4096

let find_context t (spec : Protocol.instance) =
  let key = context_key spec in
  match Lru.find t.contexts key with
  | Some ctx ->
      count t "context_hits";
      ctx
  | None ->
      count t "context_misses";
      let ctx =
        match build_instance spec with
        | Instance.Mesh { mesh; trace; policy } ->
            Sched.Context.create ~policy ~jobs:t.config.jobs mesh trace
        | Instance.Group _ ->
            invalid_arg "Server.find_context: a group instance has no context"
      in
      let evicted = Lru.add t.contexts key ctx ~bytes:(context_bytes ctx) in
      (* an evicted context takes its warm session with it: the session
         aliases the context and can never be checked out again through
         a key whose context is gone *)
      List.iter (fun (k, _) -> Lru.remove t.warm k) evicted;
      note_evictions t evicted;
      ctx

let build_fault mesh = function
  | None -> Pim.Fault.none
  | Some (Protocol.Fault_explicit { dead_arrays; dead_nodes; dead_links }) -> (
      if dead_arrays <> [] then
        Protocol.reject "\"dead_arrays\" requires an \"arrays\" group instance";
      match Pim.Fault.create ~dead_nodes ~dead_links () with
      | f -> f
      | exception Invalid_argument m -> Protocol.reject m)
  | Some (Protocol.Fault_seeded { seed; array_rate; node_rate; link_rate }) -> (
      if array_rate <> 0. then
        Protocol.reject "\"array_rate\" requires an \"arrays\" group instance";
      match Pim.Fault.inject ~seed ~node_rate ~link_rate mesh with
      | f -> f
      | exception Invalid_argument m -> Protocol.reject m)

(* ---------------------------------------------------------------- *)
(* Group instances (the multi-array tier)                            *)
(* ---------------------------------------------------------------- *)

(* Group problems are not context-cached: per-member sessions own
   mutable arenas that one batch wave could race on. A solved group
   problem is instead pooled whole in the warm LRU under
   [group_key] — checked out in the serial prepare pass, so it is private
   to one solve, and checked back in after the wave, like a single-mesh
   warm session. *)

let fault_key = function
  | None -> "none"
  | Some (Protocol.Fault_explicit { dead_arrays; dead_nodes; dead_links }) ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "a:%s;n:%s;l:%s" (ints dead_arrays) (ints dead_nodes)
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) dead_links))
  | Some (Protocol.Fault_seeded { seed; array_rate; node_rate; link_rate }) ->
      Printf.sprintf "s:%d;a:%h;n:%h;l:%h" seed array_rate node_rate link_rate

(* Everything a group problem depends on: the instance's context key
   (trace source, torus, policy) plus the group spec, the fabric
   price and the fault spec. *)
let group_key (spec : Protocol.instance) arrays fault_spec =
  Printf.sprintf "group:%s;arrays:%s;inter:%d;fault:%s" (context_key spec)
    arrays spec.inter_cost (fault_key fault_spec)

let build_group_fault group = function
  | None -> Multi.Group_fault.none
  | Some (Protocol.Fault_explicit { dead_arrays; dead_nodes; dead_links }) -> (
      let f =
        Multi.Group_fault.create ~dead_arrays ~dead_nodes ~dead_links ()
      in
      match Multi.Group_fault.validate f group with
      | () -> f
      | exception Invalid_argument m -> Protocol.reject m)
  | Some (Protocol.Fault_seeded { seed; array_rate; node_rate; link_rate })
    -> (
      match
        Multi.Group_fault.inject ~seed ~array_rate ~node_rate ~link_rate group
      with
      | f -> f
      | exception Invalid_argument m -> Protocol.reject m)

let build_group_problem t (instance : Protocol.instance) fault_spec =
  match build_instance instance with
  | Instance.Group { group; trace; policy } -> (
      let fault = build_group_fault group fault_spec in
      match
        Multi.Group_problem.create ~policy ~jobs:t.config.jobs ~fault group
          trace
      with
      | gp -> gp
      | exception Invalid_argument m -> Protocol.reject m)
  | Instance.Mesh _ ->
      invalid_arg "Server.build_group_problem: not a group instance"

let solve_error m = Protocol.make_error "solve-error" m

let solve_group id gp ~key ~cancel algorithm =
  let algorithm =
    match Sched.Scheduler.of_name algorithm with
    | a -> a
    | exception Invalid_argument m -> Protocol.reject m
  in
  (* arm every session so the per-datum poll points inside each member
     and stage-two solve honor the request deadline *)
  Multi.Group_problem.set_cancel gp cancel;
  match Multi.Group_solver.evaluate gp algorithm with
  | plan, breakdown ->
      (* disarm every session before the problem rejoins the warm pool *)
      Multi.Group_problem.set_cancel gp Sched.Cancel.none;
      ( Protocol.ok_response id
        [
          ("algorithm", Obs.Json.String (Sched.Scheduler.name algorithm));
          ( "arrays",
            Obs.Json.Int
              (Multi.Array_group.n_members (Multi.Group_problem.group gp)) );
          ("total", Obs.Json.Int breakdown.Multi.Group_schedule.total);
          ("reference", Obs.Json.Int breakdown.Multi.Group_schedule.reference);
          ("movement", Obs.Json.Int breakdown.Multi.Group_schedule.movement);
          ("moves", Obs.Json.Int (Multi.Group_schedule.moves plan));
          ( "array_moves",
            Obs.Json.Int (Multi.Group_schedule.array_moves plan) );
          ("plan", Obs.Json.String (Multi.Group_serial.to_string plan));
        ],
        Some (key, Group gp) )
  | exception Invalid_argument m -> raise (Protocol.Reject (solve_error m))

(* ---------------------------------------------------------------- *)
(* Solving                                                           *)
(* ---------------------------------------------------------------- *)

let admit_bytes t need =
  match t.config.max_arena_bytes with
  | None -> ()
  | Some budget ->
      if need > budget then
        raise
          (Protocol.Reject
             (Protocol.make_error "over-budget"
                (Printf.sprintf
                   "instance needs %d arena bytes, budget is %d" need budget)))

let admit t ctx = admit_bytes t ctx.Sched.Context.max_arena_bytes

(* The timed replay is request-scoped and pure: it re-runs the solved
   schedule through the cycle-honest simulator with the request's link
   model and the same fault set the solver saw. A deadlock (possible
   only with bounded queues) is a property of the requested model, not a
   server failure, so it comes back as a solve-error. *)
let timed_fields ctx fault model schedule =
  let mesh = ctx.Sched.Context.mesh in
  let trace = ctx.Sched.Context.trace in
  match
    Pim.Timed_simulator.run ~fault ~model mesh
      (Sched.Schedule.to_rounds schedule trace)
  with
  | r ->
      [
        ( "timed",
          Obs.Json.Obj
            [
              ("cycles", Obs.Json.Int r.Pim.Timed_simulator.total_cycles);
              ( "volume_hops",
                Obs.Json.Int r.Pim.Timed_simulator.total_volume_hops );
              ( "link_utilization",
                Obs.Json.Float r.Pim.Timed_simulator.link_utilization );
              ( "bandwidth_idle",
                Obs.Json.Int r.Pim.Timed_simulator.bandwidth_idle );
              ( "queue_stall_cycles",
                Obs.Json.Int r.Pim.Timed_simulator.queue_stall_cycles );
              ("compute_idle", Obs.Json.Int r.Pim.Timed_simulator.compute_idle);
              ("energy", Obs.Json.Float r.Pim.Timed_simulator.energy);
            ] );
      ]
  | exception Pim.Timed_simulator.Deadlock { cycle; in_flight } ->
      raise
        (Protocol.Reject
           (solve_error
              (Printf.sprintf
                 "timed replay deadlocked at cycle %d with %d packets in \
                  flight (queue_depth too small)"
                 cycle in_flight)))

let solve id ctx ~key ~base ~cancel algorithm fault_spec timed =
  let algorithm =
    match Sched.Scheduler.of_name algorithm with
    | a -> a
    | exception Invalid_argument m -> Protocol.reject m
  in
  let fault = build_fault ctx.Sched.Context.mesh fault_spec in
  (* request-scoped session over the shared context: either a warm
     session checked out of the pool and patched to this request's fault
     (only repriced slab rows refill), or a cold one. Either way the
     session is private to this solve and checked back in after the
     wave, so answers stay byte-identical to a cold rebuild. *)
  let problem =
    match
      match base with
      | Some p -> Sched.Problem.with_fault_patch p fault
      | None -> Sched.Problem.of_context ~fault ctx
    with
    | p -> p
    | exception Invalid_argument m -> Protocol.reject m
  in
  Sched.Problem.set_cancel problem cancel;
  match Sched.Scheduler.solve problem algorithm with
  | schedule ->
      let trace = ctx.Sched.Context.trace in
      let breakdown = Sched.Schedule.cost schedule trace in
      let timed_part =
        match timed with
        | None -> []
        | Some model -> timed_fields ctx fault model schedule
      in
      (* disarm before the session rejoins the warm pool: the token is
         request-scoped, the session is not *)
      Sched.Problem.set_cancel problem Sched.Cancel.none;
      ( Protocol.ok_response id
          ([
             ("algorithm", Obs.Json.String (Sched.Scheduler.name algorithm));
             ("total", Obs.Json.Int breakdown.Sched.Schedule.total);
             ("reference", Obs.Json.Int breakdown.Sched.Schedule.reference);
             ("movement", Obs.Json.Int breakdown.Sched.Schedule.movement);
             ("moves", Obs.Json.Int (Sched.Schedule.moves schedule));
             ( "plan",
               Obs.Json.String (Sched.Schedule_serial.to_string schedule) );
           ]
          @ timed_part),
        Some (key, Solo problem) )
  | exception Invalid_argument m -> raise (Protocol.Reject (solve_error m))

let stats_fields t =
  let c name = (name, Obs.Json.Int (counter t name)) in
  [
    ("protocol", Obs.Json.String Protocol.version);
    c "requests";
    c "errors";
    c "rejected";
    c "batches";
    ("contexts", Obs.Json.Int (Lru.length t.contexts));
    ("warm_entries", Obs.Json.Int (Lru.length t.warm));
    c "warm_sessions";
    c "warm_group_sessions";
    ( "cache_bytes",
      Obs.Json.Int (Lru.used_bytes t.contexts + Lru.used_bytes t.warm) );
    ("cache_budget", Obs.Json.Int t.config.max_cache_bytes);
    ( "cache_evictions",
      Obs.Json.Int (Lru.evictions t.contexts + Lru.evictions t.warm) );
    c "overloaded";
    c "deadline_exceeded";
    c "task_crashes";
    c "line_overflows";
    c "wave_retries";
    ("jobs", Obs.Json.Int t.config.jobs);
  ]

(* ---------------------------------------------------------------- *)
(* Batch execution                                                   *)
(* ---------------------------------------------------------------- *)

let internal_error e =
  let bt = Printexc.get_backtrace () in
  let extra =
    if bt = "" then [] else [ ("backtrace", Obs.Json.String bt) ]
  in
  Protocol.make_error ~extra "internal-error" (Printexc.to_string e)

let deadline_error phase =
  Protocol.make_error "deadline-exceeded"
    (Printf.sprintf "request deadline expired %s" phase)

(* What the serial prepare pass leaves for the parallel wave: either a
   finished response, or a solve closure still to run. Everything that
   mutates server state (cache fills, warm checkouts, counters) happens in
   prepare; the fan-out only runs pure per-request solves. *)
type prepared =
  | Done of string
  | Todo of {
      id : Obs.Json.t;
      cancel : Sched.Cancel.t;
      work : unit -> string * (string * session) option;
          (** the pure per-request solve; also yields the session to
              check back into the warm pool (solo solves only) *)
    }

let note_error t = count t "errors"

let note_deadline t =
  count t "deadline_exceeded";
  note_error t

let note_crash t =
  count t "task_crashes";
  note_error t

let prepare_inner t line =
  Obs.Failpoint.hit fp_decode;
  match Protocol.decode line with
  | Error (id, e) ->
      note_error t;
      Done (Protocol.error_response id e)
  | Ok { id; op } -> (
      match op with
      | Ping ->
          Done
            (Protocol.ok_response id
               [ ("protocol", Obs.Json.String Protocol.version) ])
      | Stats -> Done (Protocol.ok_response id (stats_fields t))
      | Shutdown ->
          t.stopping <- true;
          Done (Protocol.ok_response id [ ("stopping", Obs.Json.Bool true) ])
      | Solve { instance; algorithm; fault; timed; deadline_ms } -> (
          (* the deadline clock starts at admission: a budget of 0 is
             already expired, and context construction below counts
             against the budget *)
          let cancel =
            match deadline_ms with
            | None -> Sched.Cancel.none
            | Some ms -> Sched.Cancel.after ~budget_ms:(float_of_int ms)
          in
          if Sched.Cancel.expired cancel then begin
            note_deadline t;
            Done (Protocol.error_response id (deadline_error "at admission"))
          end
          else
            (* context resolution, group construction and admission (with
               their possible rejections) are part of prepare so server
               state has a single writer; only the pure solve closure
               escapes onto the parallel wave *)
            match
              match instance.Protocol.arrays with
              | Some arrays ->
                  if timed <> None then
                    Protocol.reject
                      "\"timed\" replay is single-mesh only (no group \
                       simulator); drop the \"arrays\" field";
                  let key = group_key instance arrays fault in
                  let gp =
                    match Lru.find t.warm key with
                    | Some (Group gp) ->
                        Lru.remove t.warm key;
                        count t "warm_group_sessions";
                        gp
                    | Some (Solo _) | None ->
                        build_group_problem t instance fault
                  in
                  admit_bytes t (Multi.Group_problem.max_arena_bytes gp);
                  count t "group_requests";
                  fun () -> solve_group id gp ~key ~cancel algorithm
              | None ->
                  let ctx = find_context t instance in
                  admit t ctx;
                  (* warm checkout: the serial prepare pass owns the table,
                     so two same-key requests in one wave race on nothing —
                     the second simply opens cold *)
                  let key = context_key instance in
                  let base =
                    match Lru.find t.warm key with
                    | Some (Solo p) ->
                        Lru.remove t.warm key;
                        count t "warm_sessions";
                        Some p
                    | Some (Group _) | None -> None
                  in
                  fun () ->
                    solve id ctx ~key ~base ~cancel algorithm fault timed
            with
            | work ->
                if Sched.Cancel.expired cancel then begin
                  note_deadline t;
                  Done
                    (Protocol.error_response id (deadline_error "at admission"))
                end
                else Todo { id; cancel; work }
            | exception Protocol.Reject e ->
                if e.Protocol.code = "over-budget" then count t "rejected"
                else note_error t;
                Done (Protocol.error_response id e)))

(* [prepare] is total: any exception the admission path leaks — a crash
   in a workload generator, a failpoint injection at [serve.decode] —
   becomes a typed [internal-error] response for that one request
   instead of killing the daemon. *)
let prepare t line =
  count t "requests";
  match prepare_inner t line with
  | p -> p
  | exception Protocol.Reject e ->
      note_error t;
      Done (Protocol.error_response (Protocol.request_id line) e)
  | exception e ->
      note_crash t;
      Done
        (Protocol.error_response (Protocol.request_id line)
           (internal_error e))

let now () = Obs.Clock.now_s ()

type outcome =
  | Passthrough
  | Solved of (string * session) option
  | Failed
  | Deadlined
  | Crashed

(* [run_prepared] is total — the task boundary of the wave. A [Reject]
   is the protocol's typed failure; [Cancel.Expired] is a deadline
   firing at a poll point inside the solve; anything else is a crash,
   isolated to this request (typed [internal-error] with a backtrace)
   so it cannot poison the batch wave or the domain pool. Counters are
   deferred to the serial post-pass (the wave must not race on them). *)
let run_prepared _t = function
  | Done response -> (response, 0., Passthrough)
  | Todo { id; cancel; work } -> (
      let t0 = now () in
      if Sched.Cancel.expired cancel then
        ( Protocol.error_response id
            (deadline_error "before the solve started"),
          0.,
          Deadlined )
      else
        match
          Obs.Failpoint.hit fp_solve;
          work ()
        with
        | response, session -> (response, now () -. t0, Solved session)
        | exception Protocol.Reject e ->
            (Protocol.error_response id e, now () -. t0, Failed)
        | exception Sched.Cancel.Expired ->
            ( Protocol.error_response id (deadline_error "during the solve"),
              now () -. t0,
              Deadlined )
        | exception e ->
            ( Protocol.error_response id (internal_error e),
              now () -. t0,
              Crashed ))

(* [process_batch t lines] answers one wave of request lines, in order.
   Decode, admission control and cache management run serially; the
   per-request solves fan out on the engine's domain pool. Returns each
   response paired with its solve latency in seconds (0 for non-solve
   ops). Responses depend only on the request, never on batching or
   [jobs], so a client cannot observe the wave boundaries. *)
let process_batch t lines =
  count t "batches";
  let prepared = Array.of_list (List.map (prepare t) lines) in
  let results =
    match
      Sched.Engine.map ~jobs:t.config.jobs (Array.length prepared) (fun i ->
          run_prepared t prepared.(i))
    with
    | r -> r
    | exception _ ->
        (* the wave died at the engine's task boundary, not inside a
           body ([run_prepared] is total — this is the [engine.task]
           failpoint or an engine bug): re-run it serially. The work
           closures are deterministic and server state is only written
           in the post-pass below, so the re-run answers identically. *)
        count t "wave_retries";
        Array.init (Array.length prepared) (fun i ->
            run_prepared t prepared.(i))
  in
  (* warm check-ins and failure accounting back on the single writer *)
  let observe dt =
    if !Obs.enabled then
      Obs.Metrics.observe "serve.solve_us" (int_of_float (dt *. 1e6))
  in
  Array.iter
    (fun (_, dt, outcome) ->
      match outcome with
      | Passthrough -> ()
      | Solved session -> (
          observe dt;
          match session with
          | Some (key, session) ->
              (* first same-key solve of the wave wins the slot; later
                 sessions are dropped rather than replacing it *)
              if not (Lru.mem t.warm key) then
                let bytes =
                  match session with
                  | Solo p -> Sched.Problem.max_arena_bytes p
                  | Group gp -> Multi.Group_problem.held_bytes gp
                in
                note_evictions t (Lru.add t.warm key session ~bytes)
          | None -> ())
      | Failed ->
          observe dt;
          note_error t
      | Deadlined ->
          observe dt;
          note_deadline t
      | Crashed ->
          observe dt;
          note_crash t)
    results;
  List.map (fun (r, dt, _) -> (r, dt)) (Array.to_list results)

let handle_line t line =
  match process_batch t [ line ] with
  | [ (response, _) ] -> response
  | _ -> assert false

let stopping t = t.stopping
let stats_json t = Obs.Json.Obj (stats_fields t)

(* ---------------------------------------------------------------- *)
(* The daemon loop                                                   *)
(* ---------------------------------------------------------------- *)

(* Raw-fd line reader: [in_channel] cannot tell us whether more input is
   already buffered, and greedy batching needs exactly that — drain what
   has arrived, block only when idle. The reader also enforces the
   request line cap: a line growing past [limit] bytes is discarded as
   it streams in (the buffer never holds more than [limit] bytes of one
   line), and surfaces as [Too_long] once its terminating newline — or
   end of input — arrives. *)
type item = Req of string | Too_long

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  limit : int;
  mutable eof : bool;
  mutable discarding : bool; (* inside an over-limit line, dropping bytes *)
}

let reader ~limit fd =
  {
    fd;
    buf = Buffer.create 4096;
    chunk = Bytes.create 65536;
    limit;
    eof = false;
    discarding = false;
  }

(* Pop one complete item off the buffer; [None] means more input is
   needed (any over-limit prefix has already been dropped). *)
let buffered_item r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      if r.discarding then begin
        r.discarding <- false;
        Some Too_long
      end
      else if i > r.limit then Some Too_long
      else Some (Req (String.sub s 0 i))
  | None ->
      if (not r.discarding) && String.length s > r.limit then begin
        (* over the cap with no newline in sight: drop the bytes now so
           a hostile endless line cannot grow the buffer unboundedly *)
        Buffer.clear r.buf;
        r.discarding <- true
      end
      else if r.discarding then Buffer.clear r.buf;
      None

let refill r =
  match
    let want = Obs.Failpoint.clamp fp_read (Bytes.length r.chunk) in
    Obs.Failpoint.hit fp_read;
    Unix.read r.fd r.chunk 0 want
  with
  | 0 ->
      r.eof <- true;
      false
  | n ->
      Buffer.add_subbytes r.buf r.chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Obs.Failpoint.Injected _ ->
      (* an injected read fault models the client connection dying *)
      r.eof <- true;
      false
  | exception
      Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      r.eof <- true;
      false

(* Blocking read of one item; [None] at end of input. A final line
   without a trailing newline still counts. *)
let rec read_item_block r =
  match buffered_item r with
  | Some l -> Some l
  | None ->
      if r.eof then
        if r.discarding then begin
          r.discarding <- false;
          Buffer.clear r.buf;
          Some Too_long
        end
        else if Buffer.length r.buf > 0 then begin
          let l = Buffer.contents r.buf in
          Buffer.clear r.buf;
          if String.length l > r.limit then Some Too_long else Some (Req l)
        end
        else None
      else begin
        ignore (refill r);
        read_item_block r
      end

(* One item only if it is already available without blocking. *)
let rec read_item_avail r =
  match buffered_item r with
  | Some l -> Some l
  | None ->
      if r.eof then None
      else begin
        match Unix.select [ r.fd ] [] [] 0. with
        | [], _, _ -> None
        | _ -> if refill r then read_item_avail r else None
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_item_avail r
      end

(* Complete lines already sitting in the buffer — the backlog the
   overload control sheds against. *)
let buffered_lines r =
  let s = Buffer.contents r.buf in
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(* ---- hardened response writer ---- *)

exception Client_gone

(* Write the whole string to the (non-blocking) fd: EINTR retries,
   EAGAIN waits — but only until [deadline], so one slow-reading (or
   stalled) client cannot wedge the daemon — and EPIPE/ECONNRESET
   surface as [Client_gone] for a clean disconnect instead of an
   unhandled signal or exception. *)
let write_all ~deadline fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      (match Obs.Failpoint.hit fp_write with
      | () -> ()
      | exception Obs.Failpoint.Injected _ -> raise Client_gone);
      let want = Obs.Failpoint.clamp fp_write (len - off) in
      match Unix.write fd b off want with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          let remain = deadline -. Obs.Clock.now_s () in
          if remain <= 0. then raise Client_gone
          else begin
            (match Unix.select [] [ fd ] [] (Float.min remain 0.2) with
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            go off
          end
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          raise Client_gone
    end
  in
  go 0

(* One response line under one [timeout_ms] budget. The newline goes out
   as its own write rather than as a copy of the response with "\n"
   appended: served plans run to hundreds of KB. *)
let write_line ~timeout_ms fd s =
  let deadline = Obs.Clock.now_s () +. (timeout_ms /. 1000.) in
  write_all ~deadline fd s;
  write_all ~deadline fd "\n"

(* ---- overload and overflow responses ---- *)

let overflow_response t =
  count t "requests";
  count t "line_overflows";
  note_error t;
  Protocol.error_response Obs.Json.Null
    (Protocol.make_error "parse-error"
       (Printf.sprintf "request line exceeds %d bytes"
          t.config.max_line_bytes))

let overloaded_error t =
  let retry = max 1 (int_of_float (Float.ceil t.last_wave_ms)) in
  Protocol.make_error "overloaded"
    ~extra:[ ("retry_after_ms", Obs.Json.Int retry) ]
    (Printf.sprintf "server backlog exceeds %d requests" t.config.max_queue)

(* Shed buffered backlog beyond [max_queue]: the oldest excess lines are
   answered [overloaded] (with a retry hint from the last wave's
   latency) without being decoded or solved, so a flooding client costs
   one JSON id-probe per shed line instead of a solve. The newest
   [max_queue] lines stay queued for later waves; response order still
   follows arrival order. *)
let shed_backlog t r =
  let rec go acc =
    if buffered_lines r <= t.config.max_queue then List.rev acc
    else
      match buffered_item r with
      | None -> List.rev acc
      | Some Too_long -> go (overflow_response t :: acc)
      | Some (Req line) ->
          count t "requests";
          count t "overloaded";
          note_error t;
          go
            (Protocol.error_response (Protocol.request_id line)
               (overloaded_error t)
            :: acc)
  in
  go []

(* Answer one wave of items in arrival order: over-limit lines get their
   typed rejection inline, everything else goes through the batch. *)
let answer_items t items =
  let lines =
    List.filter_map (function Req l -> Some l | Too_long -> None) items
  in
  let solved = ref (process_batch t lines) in
  List.map
    (function
      | Too_long -> overflow_response t
      | Req _ -> (
          match !solved with
          | (resp, _) :: rest ->
              solved := rest;
              resp
          | [] -> assert false))
    items

(* [run t ~input ~output] is the daemon: read request lines from
   [input], write response lines to [output] in order, batching whatever
   has already arrived (up to [config.batch]) onto one wave so
   compatible requests share hot contexts and the domain pool. Backlog
   beyond [config.max_queue] is shed with typed [overloaded] responses.
   Returns on end of input, after answering a shutdown op (draining the
   in-flight wave first), or when the client stops reading responses
   ([write_timeout_ms] per response, EPIPE, or a closed fd). *)
let run t ~input ~output =
  (* a client closing the response pipe must surface as EPIPE on write,
     not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Printexc.record_backtrace true;
  let r = reader ~limit:t.config.max_line_bytes input in
  (try Unix.set_nonblock output with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      try Unix.clear_nonblock output with Unix.Unix_error _ -> ())
  @@ fun () ->
  let write s = write_line ~timeout_ms:t.config.write_timeout_ms output s in
  try
    let rec loop () =
      if not (stopping t) then
        match read_item_block r with
        | None -> ()
        | Some first ->
            let rec gather acc k =
              if k >= t.config.batch then List.rev acc
              else
                match read_item_avail r with
                | None -> List.rev acc
                | Some item -> gather (item :: acc) (k + 1)
            in
            let items = gather [ first ] 1 in
            let shed = shed_backlog t r in
            let t0 = now () in
            let responses = answer_items t items in
            t.last_wave_ms <- Float.max 1. ((now () -. t0) *. 1000.);
            List.iter write responses;
            List.iter write shed;
            loop ()
    in
    loop ()
  with Client_gone -> count t "client_gone"
