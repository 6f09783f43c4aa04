(* Client-visible benchmark of `pimsched serve`.

   pimbench --workload W --seed N --seconds S --trace 0|1 --daemon EXE
            [--out DIR]

   Starts the daemon EXE as a child (`serve --jobs 1`), sets it up five
   times (setup_s is the median), drives the seeded workload W at it for
   S seconds, checks every answer against the one-shot API, and prints
   the end-to-end metrics. With --trace 1 it then replays the same
   requests in process with tracing on and prints the per-layer metrics
   instead, writing the spans to DIR. The last stdout line is the JSON
   result. *)

open Stat

let setups = 5
let first_id = 1000

let args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and daemon = ref "" in
  let out = ref ".bench_build/perfbench" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat "|" Mix.names );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 per-layer replay instead");
      ("--daemon", Arg.Set_string daemon, "EXE the pimsched binary");
      ("--out", Arg.Set_string out, "DIR where the span file goes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pimbench --workload W --seed N --seconds S --trace 0|1 --daemon EXE";
  if not (List.mem !workload Mix.names) then begin
    prerr_endline ("pimbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !daemon = "" then begin
    prerr_endline "pimbench: --daemon is required";
    exit 2
  end;
  (!workload, !seed, !seconds, !trace = 1, !daemon, !out)

(* ---- correctness ---- *)

let oracle = Hashtbl.create 256

let expected (r : Spec.t) =
  let key = Spec.answer_key r in
  match Hashtbl.find_opt oracle key with
  | Some e -> e
  | None ->
      let e = try Some (Spec.expected r) with _ -> None in
      Hashtbl.replace oracle key e;
      e

let correct ~id r response =
  match (response, expected r) with
  | Some line, Some fields ->
      String.equal line (Serve.Protocol.ok_response (Obs.Json.Int id) fields)
  | _ -> false

(* ---- set-up: spawn, ping, prime ---- *)

let ping = {|{"id":0,"op":"ping"}|}

(* priming requests take ids 1.. ; measured ones start at [first_id] *)
let primes (w : Mix.t) = List.mapi (fun i r -> (i + 1, r)) w.prime

let set_up exe (w : Mix.t) =
  let t = Client.now () in
  let d = Client.spawn exe (Mix.daemon_args w) in
  let pong = Client.roundtrip d ping in
  let answers =
    List.map (fun (id, r) -> Client.roundtrip d (Spec.line ~id r)) (primes w)
  in
  let s = Client.now () -. t in
  let ok =
    (match pong with
    | Some p -> String.starts_with ~prefix:{|{"id":0,"ok":true|} p
    | None -> false)
    && List.for_all2 (fun (id, r) a -> correct ~id r a) (primes w) answers
  in
  (s, d, ok)

let () =
  let name, seed, seconds, trace, exe, out = args () in
  let w = Mix.make name seed in
  (* set up several times; the last daemon is the one measured. Answers
     are checked after each set-up has been timed. *)
  let runs =
    List.init setups (fun i ->
        let ((_, d, _) as run) = set_up exe w in
        if i < setups - 1 then Client.stop d;
        run)
  in
  let _, d, _ = List.nth runs (setups - 1) in
  let setup_s = median (Array.of_list (List.map (fun (s, _, _) -> s) runs)) in
  Gc.compact ();
  let phase = Client.measure d w.requests ~seconds ~first_id in
  let stats = Client.roundtrip d {|{"id":1,"op":"stats"}|} in
  let rss = Client.peak_rss_mb d in
  Client.stop d;
  (* every answer checked, outside the timed phase *)
  let set_up_ok = List.for_all (fun (_, _, ok) -> ok) runs in
  let samples = phase.samples in
  let attempted = Array.length samples in
  let good =
    Array.map
      (fun (s : Client.sample) -> correct ~id:s.id s.spec s.response)
      samples
  in
  let count p = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 in
  let n_good = count Fun.id good in
  let failed = attempted - n_good in
  let frac k = float_of_int k /. float_of_int (max 1 attempted) in
  let answered =
    Array.of_list
      (List.filter_map
         (fun (s : Client.sample) ->
           if Float.is_nan s.latency then None else Some (s.latency *. 1000.))
         (Array.to_list samples))
  in
  let within =
    count Fun.id
      (Array.mapi
         (fun i (s : Client.sample) ->
           good.(i) && s.latency *. 1000. <= Spec.limit_ms s.spec)
         samples)
  in
  let tail_ms, tail_pct = tail answered in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "throughput_rps" "req/s" (float_of_int n_good /. phase.wall);
      metric "latency_p50_ms" "ms" (median answered);
      metric "latency_tail_ms" "ms" tail_ms;
      metric "within_limit_frac" "ratio" (frac within);
      metric "peak_rss_mb" "MiB" rss;
    ]
  in
  Printf.printf "workload %s  seed %d  %.0f s  daemon: %s\n" name seed seconds
    (String.concat " " (Mix.daemon_args w));
  print_metrics (e2e @ [ metric "error_frac" "ratio" (frac failed) ]);
  Printf.printf
    "  latency_tail_ms is p%.1f of %d answered requests; %d attempted, %d \
     failed\n"
    tail_pct (Array.length answered) attempted failed;
  Option.iter (Printf.printf "  daemon stats: %s\n") stats;
  let ok = set_up_ok && failed = 0 in
  if not trace then result_line ~ok ~attempted ~failed e2e
  else
    let prime = List.map (fun (id, r) -> Spec.line ~id r) (primes w) in
    let per_layer, shape_ok =
      Layers.report w ~out ~seed ~stats ~samples ~prime
    in
    result_line ~ok:(ok && shape_ok) ~attempted ~failed per_layer
