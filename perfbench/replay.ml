(* The traced run: every request replayed in order, in process, through
   [Serve.Server.process_batch] on a server configured like the daemon.
   Each call is wrapped in benchmark spans, and Obs is switched on only
   here, so the library's own spans nest under them. A second server
   replays the same lines untraced, interleaved request by request, to
   price the tracing itself. *)

let counters =
  [
    "cost.batch_fills";
    "problem.arena_bytes";
    "problem.rows_invalidated";
    "problem.rows_refilled";
    "grouping.merge_attempts";
    "layered.edges_relaxed";
    "layered.nodes_expanded";
    "sim.flits";
    "sim.queue_stalls";
    "serve.context_hits";
    "serve.context_misses";
    "serve.cache_evictions";
  ]

type result = {
  spans : Obs.Span.completed list;
  owner : (int, int) Hashtbl.t;  (** root span id -> request index *)
  traced_s : float array;  (** process_batch wall time, traced *)
  untraced_s : float array;  (** the same call on the untraced server *)
  totals : (string * int) list;  (** counter totals over the replay *)
  cache_bytes : int;  (** traced server's cache_bytes at the end *)
}

let now = Obs.Clock.now_s

let timed f =
  let t = now () in
  ignore (f ());
  now () -. t

(* What the server does on a context miss, replayed from outside so it
   shows as its own layer: build the trace, then the shared context. *)
let create_context (r : Spec.t) =
  let mesh = Spec.mesh_of r in
  let trace = Spec.trace_of r mesh in
  ignore
    (Sched.Context.create
       ~policy:(Spec.policy ~unbounded:r.unbounded trace mesh)
       ~jobs:1 mesh trace)

let run (w : Mix.t) ~prime (requests : (string * Spec.t) array) =
  let config = Mix.server_config w in
  let traced = Serve.Server.create ~config () in
  let plain = Serve.Server.create ~config () in
  List.iter
    (fun line ->
      ignore (Serve.Server.process_batch traced [ line ]);
      ignore (Serve.Server.process_batch plain [ line ]))
    prime;
  Obs.reset ();
  let n = Array.length requests in
  let traced_s = Array.make n 0. and untraced_s = Array.make n 0. in
  (* request indices with a context replay, newest first *)
  let creates = ref [] in
  let misses () =
    Obs.Metrics.counter (Obs.Metrics.snapshot ()) "serve.context_misses"
  in
  Array.iteri
    (fun i (line, spec) ->
      Obs.with_enabled (fun () ->
          let before = misses () in
          Obs.Span.with_ ~name:"bench.request" (fun () ->
              Obs.Span.with_ ~name:"serve.decode" (fun () ->
                  ignore (Serve.Protocol.decode line));
              traced_s.(i) <-
                Obs.Span.with_ ~name:"serve.process_batch" (fun () ->
                    timed (fun () ->
                        Serve.Server.process_batch traced [ line ])));
          if misses () > before then begin
            creates := i :: !creates;
            Obs.Span.with_ ~name:"core.context.create" (fun () ->
                create_context spec)
          end);
      untraced_s.(i) <-
        timed (fun () -> Serve.Server.process_batch plain [ line ]))
    requests;
  let snap = Obs.Metrics.snapshot () in
  let spans = Obs.Span.spans () in
  (* roots complete in replay order: request spans one per request, and
     context replays one per recorded miss *)
  let owner = Hashtbl.create 1024 in
  let req_i = ref 0 and creates = ref (List.rev !creates) in
  List.iter
    (fun (s : Obs.Span.completed) ->
      if s.parent = -1 then
        match s.name with
        | "bench.request" ->
            Hashtbl.replace owner s.id !req_i;
            incr req_i
        | "core.context.create" -> (
            match !creates with
            | i :: rest ->
                Hashtbl.replace owner s.id i;
                creates := rest
            | [] -> ())
        | _ -> ())
    spans;
  let cache_bytes =
    match Serve.Server.stats_json traced with
    | Obs.Json.Obj f -> (
        match List.assoc_opt "cache_bytes" f with
        | Some (Obs.Json.Int b) -> b
        | _ -> 0)
    | _ -> 0
  in
  Obs.reset ();
  {
    spans;
    owner;
    traced_s;
    untraced_s;
    totals = List.map (fun c -> (c, Obs.Metrics.counter snap c)) counters;
    cache_bytes;
  }

(* ---- per-layer accounting ---- *)

(* The layer a span's self time is charged to. *)
let layer_of name =
  let pre p = String.starts_with ~prefix:p name in
  if name = "serve.decode" then "serve.decode"
  else if name = "serve.process_batch" then "serve.self"
  else if name = "core.context.create" then "core.context.create"
  else if pre "scheduler." then
    "core.scheduler." ^ String.sub name 10 (String.length name - 10)
  else if pre "problem.prefetch_" then "core.problem.prefetch"
  else if name = "gomcds.place" then "core.gomcds.place"
  else if name = "grouping.partitions" then "core.grouping.partitions"
  else if name = "layered.solve" || name = "layered.solve_group" then
    "graph.layered.solve"
  else if name = "sim.timed_run" then "pim.timed_run"
  else if name = "multi.solve" then "multi.solve"
  else if name = "bench.request" then "bench"
  else "other." ^ name

(* The request a span belongs to: the owner of its root span. *)
let request_of r =
  let parent = Hashtbl.create 4096 in
  List.iter
    (fun (s : Obs.Span.completed) -> Hashtbl.replace parent s.id s.parent)
    r.spans;
  let rec find id =
    match Hashtbl.find_opt r.owner id with
    | Some i -> Some i
    | None -> (
        match Hashtbl.find_opt parent id with
        | Some p when p <> -1 -> find p
        | _ -> None)
  in
  find

(* Self time (span duration minus the time its children cover) per layer
   per request, in microseconds: [layer -> per-request array]. *)
let self_times r ~n =
  let child_us = Hashtbl.create 4096 in
  List.iter
    (fun (s : Obs.Span.completed) ->
      if s.parent <> -1 then
        Hashtbl.replace child_us s.parent
          (s.dur_us
          +. Option.value (Hashtbl.find_opt child_us s.parent) ~default:0.))
    r.spans;
  let request = request_of r in
  let layers = Hashtbl.create 32 in
  List.iter
    (fun (s : Obs.Span.completed) ->
      match request s.id with
      | None -> ()
      | Some i ->
          let l = layer_of s.name in
          let a =
            match Hashtbl.find_opt layers l with
            | Some a -> a
            | None ->
                let a = Array.make n 0. in
                Hashtbl.replace layers l a;
                a
          in
          let self =
            s.dur_us
            -. Option.value (Hashtbl.find_opt child_us s.id) ~default:0.
          in
          a.(i) <- a.(i) +. Float.max 0. self)
    r.spans;
  layers

(* Chrome trace_event JSON: one complete event per span, tagged with the
   request id it belongs to. *)
let write_trace r ~ids path =
  let t0 =
    List.fold_left
      (fun m (s : Obs.Span.completed) -> Float.min m s.start_us)
      infinity r.spans
  in
  let request = request_of r in
  let event (s : Obs.Span.completed) =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String s.name);
        ("ph", Obs.Json.String "X");
        ("ts", Obs.Json.Float (s.start_us -. t0));
        ("dur", Obs.Json.Float s.dur_us);
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int s.domain);
        ( "args",
          Obs.Json.Obj
            [
              ("id", Obs.Json.Int s.id);
              ("parent", Obs.Json.Int s.parent);
              ( "request",
                Obs.Json.Int
                  (match request s.id with Some i -> ids.(i) | None -> -1) );
            ] );
      ]
  in
  Obs.Json.write_file path
    (Obs.Json.Obj
       [ ("traceEvents", Obs.Json.List (List.map event r.spans)) ])
