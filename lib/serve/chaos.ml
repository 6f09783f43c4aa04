(* The chaos harness runs the real daemon loop — [Server.run] in a
   spawned domain over Unix pipes — never a mocked transport: the
   hardening under test lives in the reader, the writer and the wave
   machinery, and a fake pipe would test none of it. Episodes are
   sequential (failpoint schedules are process-global), and every
   schedule is seeded, so a run is reproducible end to end. *)

let default_script ~n =
  let algos =
    [| "scds"; "lomcds"; "gomcds"; "lomcds-grouped"; "gomcds-grouped" |]
  in
  List.init n (fun i ->
      Printf.sprintf
        {|{"id":%d,"workload":"1","size":16,"mesh":{"rows":16,"cols":16},"algorithm":"%s"}|}
        i
        algos.(i mod Array.length algos))

(* context churn for the cache-pressure episode: four distinct instance
   keys cycling, so a small budget must evict *)
let pressure_script ~n =
  List.init n (fun i ->
      Printf.sprintf {|{"id":%d,"workload":"1","size":%d,"algorithm":"scds"}|}
        i
        (6 + (2 * (i mod 4))))

(* append a field to a request line (used to graft [deadline_ms] onto
   script lines without disturbing the rest of the request) *)
let with_field line key v =
  match Obs.Json.parse line with
  | Ok (Obs.Json.Obj fields) ->
      Obs.Json.to_string (Obs.Json.Obj (fields @ [ (key, v) ]))
  | Ok _ | Error _ -> line

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

(* ---------------------------------------------------------------- *)
(* Episode plumbing                                                  *)
(* ---------------------------------------------------------------- *)

type behavior = Read_to_eof | Hang_up_after of int

type episode_run = {
  requests : int;
  responses : string list; (* in arrival order *)
  complete : bool; (* client read to EOF (vs hung up early) *)
  server_error : string option; (* an exception escaping Server.run *)
  stats : (string * Obs.Json.t) list;
  fired : (string * int * int) list; (* (site, hits, fired) *)
}

let write_fd_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* EPIPE-tolerant: the server closing its input early (crash under
   test, shutdown) must not wedge the feeder *)
let feed fd lines =
  (try List.iter (fun l -> write_fd_all fd (l ^ "\n")) lines
   with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run_episode ~config ~failpoints ~behavior script =
  Obs.Failpoint.clear ();
  (match failpoints with
  | None -> ()
  | Some spec -> Obs.Failpoint.configure spec);
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server = Server.create ~config () in
  let total_bytes =
    List.fold_left (fun a l -> a + String.length l + 1) 0 script
  in
  (* a small script is pre-buffered in the pipe before the server even
     starts — that makes backlog (and so the overload episode's
     shedding) deterministic; a big one gets a feeder domain *)
  let feeder =
    if total_bytes <= 32768 then begin
      feed req_w script;
      None
    end
    else Some (Domain.spawn (fun () -> feed req_w script))
  in
  let srv =
    Domain.spawn (fun () ->
        let r =
          match Server.run server ~input:req_r ~output:resp_w with
          | () -> None
          | exception e -> Some (Printexc.to_string e)
        in
        (try Unix.close resp_w with Unix.Unix_error _ -> ());
        (try Unix.close req_r with Unix.Unix_error _ -> ());
        r)
  in
  let stop_after =
    match behavior with Hang_up_after k -> k | Read_to_eof -> max_int
  in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let responses = ref [] in
  let n_resp = ref 0 in
  let hung_up = ref false in
  (try
     let rec drain () =
       let s = Buffer.contents buf in
       match String.index_opt s '\n' with
       | Some i when !n_resp < stop_after ->
           responses := String.sub s 0 i :: !responses;
           incr n_resp;
           Buffer.clear buf;
           Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
           drain ()
       | _ -> ()
     in
     let rec loop () =
       if !n_resp >= stop_after then begin
         (* the adversarial client: vanish without reading the rest *)
         Unix.close resp_r;
         hung_up := true
       end
       else
         match Unix.read resp_r chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | k ->
             Buffer.add_subbytes buf chunk 0 k;
             drain ();
             loop ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
     in
     loop ()
   with Unix.Unix_error _ -> ());
  let server_error = Domain.join srv in
  (match feeder with Some d -> Domain.join d | None -> ());
  if not !hung_up then (try Unix.close resp_r with Unix.Unix_error _ -> ());
  let stats =
    match Server.stats_json server with Obs.Json.Obj f -> f | _ -> []
  in
  let fired = Obs.Failpoint.stats () in
  Obs.Failpoint.clear ();
  {
    requests = List.length script;
    responses = List.rev !responses;
    complete = not !hung_up;
    server_error;
    stats;
    fired;
  }

(* ---------------------------------------------------------------- *)
(* Invariant checking                                                *)
(* ---------------------------------------------------------------- *)

(* What each script position owes the client:
   - [Identical r]: if the response is [ok] its bytes equal the one-shot
     baseline [r]; a typed error (injected crash, shed, deadline) is
     also acceptable — injection sites fire nondeterministically across
     a parallel wave, so which request absorbs the fault is not fixed.
   - [Code c]: must be the typed error [c] (a deterministic rejection —
     an expired-at-admission deadline, an oversized line). *)
type expect = Identical of string | Code of string

let response_fields line =
  match Obs.Json.parse line with
  | Ok (Obs.Json.Obj f) -> Some f
  | Ok _ | Error _ -> None

let response_ok fields =
  match List.assoc_opt "ok" fields with
  | Some (Obs.Json.Bool b) -> Some b
  | _ -> None

let error_code fields =
  match List.assoc_opt "error" fields with
  | Some (Obs.Json.Obj e) -> (
      match List.assoc_opt "code" e with
      | Some (Obs.Json.String c) -> Some c
      | _ -> None)
  | _ -> None

let stat_int stats k =
  match List.assoc_opt k stats with Some (Obs.Json.Int i) -> i | _ -> 0

type verdict = {
  name : string;
  pass : bool;
  failures : string list;
  ok_count : int;
  codes : (string * int) list; (* error-code histogram *)
  run : episode_run;
}

let check ~name ~expected ?(require_fired = false) ?(max_cache_bytes = None)
    (run : episode_run) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (match run.server_error with
  | Some e -> fail "daemon crashed: %s" e
  | None -> ());
  let n_resp = List.length run.responses in
  if run.complete && n_resp <> run.requests then
    fail "answered %d of %d requests" n_resp run.requests;
  if (not run.complete) && n_resp > run.requests then
    fail "more responses (%d) than requests (%d)" n_resp run.requests;
  let ok_count = ref 0 in
  let codes = Hashtbl.create 8 in
  List.iteri
    (fun i (resp, exp) ->
      match response_fields resp with
      | None -> fail "response %d is not a JSON object: %s" i resp
      | Some fields -> (
          match response_ok fields with
          | None -> fail "response %d has no ok field" i
          | Some true -> (
              incr ok_count;
              match exp with
              | Identical r ->
                  if resp <> r then
                    fail "response %d diverges from the one-shot baseline" i
              | Code c ->
                  fail "response %d should be a typed %s, got ok" i c)
          | Some false -> (
              match error_code fields with
              | None -> fail "response %d is an error without a code" i
              | Some c ->
                  Hashtbl.replace codes c
                    (1 + Option.value (Hashtbl.find_opt codes c) ~default:0);
                  if not (List.mem c typed_codes) then
                    fail "response %d has unknown error code %S" i c;
                  (match exp with
                  | Code want when c <> want ->
                      fail "response %d: expected code %s, got %s" i want c
                  | _ -> ()))))
    (* pair positionally (response order is arrival order in every
       episode); truncate both sides so a count mismatch — already
       reported above — cannot crash the harness *)
    (let k = min n_resp (List.length expected) in
     List.combine
       (List.filteri (fun i _ -> i < k) run.responses)
       (List.filteri (fun i _ -> i < k) expected));
  (if require_fired then
     match List.exists (fun (_, _, f) -> f > 0) run.fired with
     | true -> ()
     | false -> fail "armed failpoints never fired");
  (match max_cache_bytes with
  | None -> ()
  | Some budget ->
      let used = stat_int run.stats "cache_bytes" in
      if used > budget then
        fail "caches hold %d bytes, budget is %d" used budget);
  {
    name;
    pass = !failures = [];
    failures = List.rev !failures;
    ok_count = !ok_count;
    codes =
      List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) codes []);
    run;
  }

let verdict_json v =
  Obs.Json.Obj
    [
      ("episode", Obs.Json.String v.name);
      ("pass", Obs.Json.Bool v.pass);
      ("requests", Obs.Json.Int v.run.requests);
      ("responses", Obs.Json.Int (List.length v.run.responses));
      ("ok", Obs.Json.Int v.ok_count);
      ( "error_codes",
        Obs.Json.Obj (List.map (fun (c, n) -> (c, Obs.Json.Int n)) v.codes) );
      ( "failpoints",
        Obs.Json.Obj
          (List.filter_map
             (fun (site, hits, fired) ->
               if hits = 0 then None
               else
                 Some
                   ( site,
                     Obs.Json.Obj
                       [
                         ("hits", Obs.Json.Int hits);
                         ("fired", Obs.Json.Int fired);
                       ] ))
             v.run.fired) );
      ("cache_bytes", Obs.Json.Int (stat_int v.run.stats "cache_bytes"));
      ( "cache_evictions",
        Obs.Json.Int (stat_int v.run.stats "cache_evictions") );
      ( "failures",
        Obs.Json.List (List.map (fun m -> Obs.Json.String m) v.failures) );
    ]

(* ---------------------------------------------------------------- *)
(* The run                                                           *)
(* ---------------------------------------------------------------- *)

let run ?(seed = 0) ?(jobs = 2) ?(requests = 20) ?script () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let base_script =
    match script with Some s -> s | None -> default_script ~n:requests
  in
  let d = Server.default_config () in
  let base = { d with Server.jobs } in
  (* the one-shot baseline: each script line solved on its own fresh
     daemonless server — what the acceptance criterion compares served
     bytes against. Failpoints must be dark for it. *)
  let baseline config script =
    Obs.Failpoint.clear ();
    let t = Server.create ~config () in
    List.map (fun l -> Server.handle_line t l) script
  in
  let expected_base = List.map (fun r -> Identical r) (baseline base base_script) in
  let half = max 1 (List.length base_script / 2) in
  let episodes =
    [
      ( "clean",
        fun () ->
          check ~name:"clean" ~expected:expected_base
            (run_episode ~config:base ~failpoints:None ~behavior:Read_to_eof
               base_script) );
      ( "solver-raise",
        fun () ->
          check ~name:"solver-raise" ~expected:expected_base
            ~require_fired:true
            (run_episode ~config:base
               ~failpoints:(Some "serve.solve=raise,n=2")
               ~behavior:Read_to_eof base_script) );
      ( "decode-raise",
        fun () ->
          check ~name:"decode-raise" ~expected:expected_base
            ~require_fired:true
            (run_episode ~config:base
               ~failpoints:(Some "serve.decode=raise,n=1")
               ~behavior:Read_to_eof base_script) );
      ( "engine-raise",
        fun () ->
          check ~name:"engine-raise" ~expected:expected_base
            ~require_fired:true
            (run_episode ~config:base
               ~failpoints:(Some "engine.task=raise,n=1")
               ~behavior:Read_to_eof base_script) );
      ( "io-chaos",
        fun () ->
          check ~name:"io-chaos" ~expected:expected_base ~require_fired:true
            (run_episode ~config:base
               ~failpoints:
                 (Some
                    (Printf.sprintf
                       "serve.read=short_read,p=0.5,seed=%d;serve.write=partial_write,p=0.5,seed=%d;serve.solve=delay:1,p=0.2,seed=%d"
                       seed (seed + 1) (seed + 2)))
               ~behavior:Read_to_eof base_script) );
      ( "deadline",
        fun () ->
          (* every fourth request expires at admission; the rest carry a
             budget no solve here approaches *)
          let script =
            List.mapi
              (fun i l ->
                with_field l "deadline_ms"
                  (Obs.Json.Int (if i mod 4 = 3 then 0 else 600_000)))
              base_script
          in
          let expected =
            List.mapi
              (fun i e ->
                if i mod 4 = 3 then Code "deadline-exceeded" else e)
              expected_base
          in
          check ~name:"deadline" ~expected
            (run_episode ~config:base ~failpoints:None ~behavior:Read_to_eof
               script) );
      ( "oversize",
        fun () ->
          let cap = 2048 in
          let garbage = String.make (4 * cap) 'x' in
          let script =
            List.filteri (fun i _ -> i < half) base_script
            @ [ garbage ]
            @ List.filteri (fun i _ -> i >= half) base_script
          in
          let expected =
            List.filteri (fun i _ -> i < half) expected_base
            @ [ Code "parse-error" ]
            @ List.filteri (fun i _ -> i >= half) expected_base
          in
          check ~name:"oversize" ~expected
            (run_episode
               ~config:{ base with Server.max_line_bytes = cap }
               ~failpoints:None ~behavior:Read_to_eof script) );
      ( "overload",
        fun () ->
          (* a pre-buffered flood against a 2-deep queue: waves of 2,
             everything beyond the queue shed as typed [overloaded] *)
          check ~name:"overload" ~expected:expected_base
            (run_episode
               ~config:{ base with Server.batch = 2; max_queue = 2 }
               ~failpoints:None ~behavior:Read_to_eof base_script) );
      ( "disconnect",
        fun () ->
          check ~name:"disconnect" ~expected:expected_base
            (run_episode
               ~config:{ base with Server.write_timeout_ms = 500. }
               ~failpoints:None ~behavior:(Hang_up_after half) base_script) );
      ( "pressure",
        fun () ->
          let budget = 32 * 1024 in
          let config = { base with Server.max_cache_bytes = budget } in
          let script = pressure_script ~n:(max 8 requests) in
          let expected =
            List.map (fun r -> Identical r) (baseline config script)
          in
          check ~name:"pressure" ~expected ~max_cache_bytes:(Some budget)
            (run_episode ~config ~failpoints:None ~behavior:Read_to_eof
               script) );
    ]
  in
  let verdicts = List.map (fun (_, f) -> f ()) episodes in
  let pass = List.for_all (fun v -> v.pass) verdicts in
  let report =
    Obs.Json.Obj
      [
        ("pass", Obs.Json.Bool pass);
        ("seed", Obs.Json.Int seed);
        ("jobs", Obs.Json.Int jobs);
        ("script_lines", Obs.Json.Int (List.length base_script));
        ("episodes", Obs.Json.List (List.map verdict_json verdicts));
      ]
  in
  (pass, report)
