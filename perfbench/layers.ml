(* Per-layer metrics from the traced replay, the workload-shape check and
   the span file. *)

let algorithms =
  [ "scds"; "lomcds"; "lomcds-grouped"; "row-wise"; "gomcds"; "gomcds-grouped" ]

(* (metric stem, layer, unit, microseconds per unit) *)
let timed_layers =
  [
    ("serve.decode_us", "serve.decode", "us", 1.);
    ("serve.self_ms", "serve.self", "ms", 1000.);
    ("core.problem.prefetch_ms", "core.problem.prefetch", "ms", 1000.);
    ("core.context.create_ms", "core.context.create", "ms", 1000.);
    ("core.gomcds.place_ms", "core.gomcds.place", "ms", 1000.);
    ("core.grouping.partitions_ms", "core.grouping.partitions", "ms", 1000.);
    ("graph.layered.solve_ms", "graph.layered.solve", "ms", 1000.);
    ("pim.timed_run_ms", "pim.timed_run", "ms", 1000.);
    ("multi.solve_ms", "multi.solve", "ms", 1000.);
  ]
  @ List.map
      (fun a ->
        ( "core.scheduler." ^ a ^ ".self_ms",
          "core.scheduler." ^ a,
          "ms",
          1000. ))
      algorithms

(* (metric, counter, unit) — reported as the mean per replayed request *)
let counter_metrics =
  [
    ("cost.batch_fills.per_req", "cost.batch_fills", "count");
    ("problem.arena_bytes.per_req", "problem.arena_bytes", "B");
    ( "core.problem.rows_invalidated.per_req",
      "problem.rows_invalidated",
      "count" );
    ("core.problem.rows_refilled.per_req", "problem.rows_refilled", "count");
    ("grouping.merge_attempts.per_req", "grouping.merge_attempts", "count");
    ("layered.edges_relaxed.per_req", "layered.edges_relaxed", "count");
    ("layered.nodes_expanded.per_req", "layered.nodes_expanded", "count");
    ("sim.flits.per_req", "sim.flits", "count");
    ("sim.queue_stalls.per_req", "sim.queue_stalls", "count");
  ]

let stat_field stats k =
  match Option.map Obs.Json.parse stats with
  | Some (Ok (Obs.Json.Obj f)) -> (
      match List.assoc_opt "result" f with
      | Some (Obs.Json.Obj r) -> (
          match List.assoc_opt k r with
          | Some (Obs.Json.Int v) -> float_of_int v
          | _ -> nan)
      | _ -> nan)
  | _ -> nan

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let report (w : Mix.t) ~out ~seed ~stats ~(samples : Client.sample array)
    ~prime =
  let open Stat in
  let n = Array.length samples in
  let r =
    Replay.run w ~prime
      (Array.map (fun (s : Client.sample) -> (s.line, s.spec)) samples)
  in
  let layers = Replay.self_times r ~n in
  let layer_total l =
    match Hashtbl.find_opt layers l with Some a -> sum a | None -> 0.
  in
  let all_us = Hashtbl.fold (fun _ a acc -> acc +. sum a) layers 0. in
  let share l = layer_total l /. Float.max 1. all_us in
  (* p50 over the requests that reached the layer at all *)
  let p50 l scale =
    match Hashtbl.find_opt layers l with
    | None -> 0.
    | Some a -> (
        match List.filter (fun x -> x > 0.) (Array.to_list a) with
        | [] -> 0.
        | xs -> median (Array.of_list xs) /. scale)
  in
  let reached a =
    Array.fold_left (fun k x -> if x > 0. then k + 1 else k) 0 a
  in
  let layer_metrics =
    List.concat_map
      (fun (stem, l, u, scale) ->
        [
          metric (stem ^ ".p50") u (p50 l scale);
          metric (stem ^ ".share") "ratio" (share l);
        ])
      timed_layers
  in
  let total c = float_of_int (List.assoc c r.totals) in
  let per_req c = total c /. float_of_int (max 1 n) in
  let waits =
    Array.mapi
      (fun i (s : Client.sample) -> (s.latency -. r.traced_s.(i)) *. 1000.)
      samples
  in
  let wait_tail, _ = tail waits in
  let single (s : Spec.t) = s.arrays = None in
  let single_solves =
    List.length (List.filter single w.prime)
    + Array.fold_left
        (fun k (s : Client.sample) -> if single s.spec then k + 1 else k)
        0 samples
  in
  let hits = total "serve.context_hits" in
  let misses = total "serve.context_misses" in
  let traced = sum r.traced_s and untraced = sum r.untraced_s in
  let overhead = (traced -. untraced) /. Float.max 1e-9 untraced in
  let metrics =
    [
      metric "serve.wait_ms.p50" "ms" (median waits);
      metric "serve.wait_ms.tail" "ms" wait_tail;
      metric "serve.service_ms.p50" "ms" (median r.untraced_s *. 1000.);
      metric "serve.wave_size" "req/batch"
        (stat_field stats "requests" /. stat_field stats "batches");
      metric "serve.warm_ratio" "ratio"
        (stat_field stats "warm_sessions"
        /. float_of_int (max 1 single_solves));
      metric "serve.context_miss_ratio" "ratio"
        (misses /. Float.max 1. (hits +. misses));
      metric "serve.cache_evictions" "count" (total "serve.cache_evictions");
      metric "serve.cache_bytes" "MiB"
        (float_of_int r.cache_bytes /. 1048576.);
    ]
    @ layer_metrics
    @ List.map (fun (name, c, u) -> metric name u (per_req c)) counter_metrics
    @ [ metric "trace.overhead_frac" "ratio" overhead ]
  in
  Printf.printf
    "\nself time per layer (traced replay of %d requests, %.1f ms traced)\n" n
    (all_us /. 1000.);
  Printf.printf "  %-34s %10s %8s %9s\n" "layer" "p50 ms" "share" "requests";
  Hashtbl.fold (fun l a acc -> (l, a) :: acc) layers []
  |> List.sort (fun (_, a) (_, b) -> compare (sum b) (sum a))
  |> List.iter (fun (l, a) ->
         Printf.printf "  %-34s %10.3f %8.4f %9d\n" l (p50 l 1000.) (share l)
           (reached a));
  Printf.printf
    "  trace.overhead_frac %.4f (traced %.1f ms vs untraced %.1f ms)\n"
    overhead (traced *. 1000.) (untraced *. 1000.);
  print_metrics metrics;
  (* the workload-shape check *)
  let largest_but except =
    Hashtbl.fold
      (fun l _ acc ->
        if List.mem l except then acc else Float.max acc (share l))
      layers 0.
  in
  let dp = share "graph.layered.solve" in
  let shape_ok, what =
    match w.name with
    | "dp-closed" ->
        ( dp >= largest_but [ "graph.layered.solve" ],
          Printf.sprintf "graph.layered.solve share %.3f is the largest" dp )
    | "cold-churn" ->
        let build =
          [ "serve.self"; "core.context.create"; "core.problem.prefetch" ]
        in
        let b = List.fold_left (fun acc l -> acc +. share l) 0. build in
        ( dp < 0.10 && b > largest_but build,
          Printf.sprintf
            "graph.layered.solve share %.3f < 0.10; serve.self + \
             core.context.create + core.problem.prefetch share %.3f is the \
             largest"
            dp b )
    | _ -> (true, "no shape constraint")
  in
  Printf.printf "  workload shape: %s: %s\n" what
    (if shape_ok then "PASS" else "FAIL");
  mkdir_p out;
  let path =
    Filename.concat out (Printf.sprintf "trace-%s-%d.json" w.name seed)
  in
  Replay.write_trace r
    ~ids:(Array.map (fun (s : Client.sample) -> s.id) samples)
    path;
  Printf.printf "  spans: %s\n" path;
  (metrics, shape_ok)
