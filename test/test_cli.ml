(* End-to-end tests of the pimsched command-line interface: each subcommand
   is executed as a real process against the built binary. *)

let binary =
  (* the CLI is built alongside the test runner, in <build>/bin beside
     <build>/test, whatever the working directory *)
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bin")
    "pimsched.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cli args =
  let out = Filename.temp_file "pimsched_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" (Filename.quote binary) args
          (Filename.quote out)
      in
      let code = Sys.command cmd in
      (code, read_file out))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_ok name args expects =
  let code, text = run_cli args in
  Alcotest.(check int) (name ^ ": exit code") 0 code;
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "%s: output missing %S in:\n%s" name needle text)
    expects

let test_binary_exists () =
  Alcotest.(check bool) "built" true (Sys.file_exists binary)

let test_compare () =
  check_ok "compare" "compare -b 1 -n 8"
    [ "gomcds"; "lower-bound"; "improvement" ]

let test_schedule_simulate () =
  check_ok "schedule" "schedule -b 2 -n 8 -a lomcds --simulate"
    [ "lomcds"; "simulated" ]

let test_example () =
  check_ok "example" "example" [ "GOMCDS"; "window 3" ]

let test_table () =
  check_ok "table" "table --which 1 --sizes 8" [ "Table 1"; "8x8"; "Avg" ]

let test_show () =
  check_ok "show" "show -b 1 -n 8 -w 2 -d 0 -a gomcds"
    [ "total references in window 2"; "trajectory of datum 0" ]

(* The whole output, byte for byte. *)
let test_replicate () =
  let code, text = run_cli "replicate -b 2 -n 8 -k 4" in
  Alcotest.(check int) "replicate: exit code" 0 code;
  Alcotest.(check string)
    "replicate: output"
    "workload 2: trace over data space {A:8x8, C:8x8} (128 elements): 8 \
     windows, 1536 references on 4x4 mesh, capacity 16\n\
     single-copy lower bound: 1112\n\
     max_copies=1  total=  1112 (reads   1056 + creation     0 + movement    \
     56)\n\
     max_copies=4  total=   466 (reads     48 + creation   362 + movement    \
     56)\n"
    text

let test_sweep_stdout () =
  check_ok "sweep" "sweep --sizes 8" [ "workload,algorithm,total"; "b5-8x8" ]

let test_export_and_reimport () =
  let path = Filename.temp_file "pimsched_cli" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_ok "export" (Printf.sprintf "export-trace -b tc -n 8 -o %s" path)
        [ "wrote tc" ];
      check_ok "reimport"
        (Printf.sprintf "compare --trace-file %s" path)
        [ "gomcds" ])

let test_plan_roundtrip () =
  let path = Filename.temp_file "pimsched_cli" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_ok "plan-out"
        (Printf.sprintf "schedule -b 1 -n 8 -a gomcds --plan-out %s" path)
        [ "plan written" ];
      let plan = Sched.Schedule_serial.load path in
      Alcotest.(check int) "plan windows" 7 (Sched.Schedule.n_windows plan))

(* Drive `pimsched serve` as a real daemon over a pipe. *)
let run_serve_cli flags requests =
  let infile = Filename.temp_file "pimsched_serve" ".in" in
  let out = Filename.temp_file "pimsched_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove infile;
      Sys.remove out)
    (fun () ->
      let oc = open_out infile in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        requests;
      close_out oc;
      let cmd =
        Printf.sprintf "%s serve %s < %s > %s 2>&1" (Filename.quote binary)
          flags (Filename.quote infile) (Filename.quote out)
      in
      let code = Sys.command cmd in
      (code, String.split_on_char '\n' (String.trim (read_file out))))

let test_serve_smoke () =
  let code, lines =
    run_serve_cli "--jobs 2 --batch 4"
      [
        {|{"id":1,"op":"ping"}|};
        {|{"id":2,"workload":"1","size":8,"algorithm":"gomcds"}|};
        {|{"id":3,"op":"stats"}|};
        {|{"id":4,"op":"shutdown"}|};
      ]
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check int) "one response per request" 4 (List.length lines);
  Alcotest.(check string)
    "ping" {|{"id":1,"ok":true,"result":{"protocol":"pim-sched-serve/1"}}|}
    (List.nth lines 0);
  List.iter
    (fun (i, needle) ->
      if not (contains (List.nth lines i) needle) then
        Alcotest.failf "response %d missing %S in:\n%s" i needle
          (List.nth lines i))
    [
      (1, {|"ok":true|});
      (1, {|"algorithm":"gomcds"|});
      (2, {|"requests":3|});
      (3, {|"stopping":true|});
    ]

(* The served plan must be byte-identical to what the one-shot CLI writes
   with --plan-out for the same instance, on every instance path: mesh
   shape and partition, capacity policy, loaded vs inline trace text, and
   the group tier. *)
let test_serve_matches_plan_out () =
  let trace = Filename.temp_file "pimsched_cli" ".trace" in
  let plan = Filename.temp_file "pimsched_cli" ".plan" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove trace;
      Sys.remove plan)
    (fun () ->
      check_ok "export" (Printf.sprintf "export-trace -b 2 -n 8 -o %s" trace)
        [ "wrote 2" ];
      let inline =
        Obs.Json.to_string (Obs.Json.String (read_file trace))
      in
      let cases =
        [
          ("generated", "-b 1 -n 8", {|"workload":"1","size":8|});
          ( "torus, cyclic-2d",
            "-b 1 -n 8 --torus --partition cyclic-2d",
            {|"workload":"1","size":8,"mesh":{"rows":4,"cols":4,"torus":true},"partition":"cyclic-2d"|}
          );
          ( "unbounded stencil",
            "--unbounded -b stencil -n 8",
            {|"workload":"stencil","size":8,"unbounded":true|} );
          ( "trace file = inline trace",
            "--trace-file " ^ Filename.quote trace,
            {|"trace":|} ^ inline );
          ( "group",
            "--arrays 2x2of4x4 -b 1 -n 8",
            {|"workload":"1","size":8,"arrays":"2x2of4x4"|} );
        ]
      in
      let code, lines =
        run_serve_cli ""
          (List.mapi
             (fun i (_, _, fields) ->
               Printf.sprintf {|{"id":%d,%s,"algorithm":"gomcds"}|} i fields)
             cases)
      in
      Alcotest.(check int) "serve exit code" 0 code;
      Alcotest.(check int) "one response per case" (List.length cases)
        (List.length lines);
      List.iter2
        (fun (name, flags, _) line ->
          check_ok name
            (Printf.sprintf "schedule %s -a gomcds --plan-out %s" flags plan)
            [ "plan written" ];
          match Obs.Json.parse line with
          | Ok (Obs.Json.Obj fields) -> (
              match List.assoc_opt "result" fields with
              | Some (Obs.Json.Obj r) -> (
                  match List.assoc_opt "plan" r with
                  | Some (Obs.Json.String served_plan) ->
                      Alcotest.(check string)
                        (name ^ ": served plan = --plan-out bytes")
                        (read_file plan) served_plan
                  | _ -> Alcotest.failf "%s: no plan in %s" name line)
              | _ -> Alcotest.failf "%s: no result in %s" name line)
          | _ -> Alcotest.failf "%s: unparseable response %s" name line)
        cases lines)

let test_serve_rejects_over_budget () =
  let code, lines =
    run_serve_cli "--max-arena-mb 0"
      [ {|{"id":1,"workload":"1","size":8}|}; {|{"id":2,"op":"shutdown"}|} ]
  in
  Alcotest.(check int) "exit code" 0 code;
  if not (contains (List.nth lines 0) {|"code":"over-budget"|}) then
    Alcotest.failf "expected over-budget rejection, got:\n%s"
      (List.nth lines 0)

let test_torus_flag () =
  check_ok "torus" "schedule -b 1 -n 8 -a gomcds --torus" [ "torus" ]

let test_stats () =
  check_ok "stats" "stats -b 5 -n 8" [ "drift="; "entropy" ]

let test_profile () =
  check_ok "profile" "profile gomcds -b 1 -n 8"
    [
      "scheduler.gomcds";
      "layered.solve";
      "layered.nodes_expanded";
      "problem.vector_hit";
      "counters:";
    ];
  (* the work counters of a GOMCDS profile are pinned on a 16x16 mesh,
     bounded and unbounded, and on two tori: the DP's cell format may
     change, the work it counts may not. [layered.*] is the 2-D DP's
     work; every solve is first tried per axis
     ([layered.separable_solves]), and a bounded one whose per-axis path
     every window admits, like every unbounded one, skips the 2-D DP
     ([layered.separable_answers]). On the 2x8 torus the 2-wide axis
     wraps onto itself and is relaxed as a line. The grouped schedulers'
     bounded repair pins the admit bytes its shell walk reads
     ([grouping.repair_probes]). *)
  let pins ?(alg = "gomcds") flags ~total ~present ~absent =
    let path = Filename.temp_file "pimsched_cli" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        check_ok ("profile " ^ flags)
          (Printf.sprintf "profile %s -b 1 %s --metrics-json %s" alg flags
             path)
          [ total ];
        let text = read_file path in
        List.iter
          (fun needle ->
            if not (contains text needle) then
              Alcotest.failf "profile metrics missing %S in:\n%s" needle text)
          present;
        List.iter
          (fun needle ->
            if contains text needle then
              Alcotest.failf "profile metrics hold %S in:\n%s" needle text)
          absent)
  in
  pins "-n 16 --mesh 16x16 -j 1" ~total:"total= 12768"
    ~present:
      [
        {|"layered.edges_relaxed":2365440|};
        {|"layered.nodes_expanded":483272|};
        {|"layered.solves":176|};
        {|"layered.separable_solves":256|};
        {|"layered.separable_answers":80|};
      ]
    ~absent:[];
  pins "-n 16 --mesh 16x16 -j 1 --unbounded" ~total:"total=  9199"
    ~present:
      [
        {|"layered.separable_solves":256|};
        {|"layered.separable_answers":256|};
      ]
    ~absent:
      [
        {|"layered.edges_relaxed"|};
        {|"layered.nodes_expanded"|};
        {|"layered.solves"|};
      ];
  pins "-n 16 --mesh 16x16 --torus -j 1" ~total:"total= 10840"
    ~present:
      [
        {|"layered.edges_relaxed":3736320|};
        {|"layered.nodes_expanded":394123|};
        {|"layered.solves":139|};
        {|"layered.separable_solves":256|};
        {|"layered.separable_answers":117|};
      ]
    ~absent:[];
  pins "-n 8 --mesh 2x8 --torus" ~total:"total=   396"
    ~present:
      [
        {|"layered.edges_relaxed":5184|};
        {|"layered.nodes_expanded":1119|};
        {|"layered.solves":12|};
        {|"layered.separable_solves":64|};
        {|"layered.separable_answers":52|};
      ]
    ~absent:[];
  pins ~alg:"lomcds-grouped" "-n 16 --mesh 16x16 -j 1" ~total:"total= 11878"
    ~present:[ {|"grouping.repair_probes":23831|} ]
    ~absent:[];
  pins ~alg:"gomcds-grouped" "-n 16 --mesh 16x16 -j 1" ~total:"total= 11848"
    ~present:[ {|"grouping.repair_probes":22300|} ]
    ~absent:[]

let test_metrics_json () =
  let path = Filename.temp_file "pimsched_cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_ok "schedule metrics"
        (Printf.sprintf "schedule -b 1 -n 8 -a gomcds --metrics-json %s" path)
        [ "gomcds" ];
      let text = read_file path in
      List.iter
        (fun needle ->
          if not (contains text needle) then
            Alcotest.failf "metrics json missing %S in:\n%s" needle text)
        [
          {|"schema":"pim-sched-metrics/1"|};
          {|"command":"schedule"|};
          {|"layered.nodes_expanded"|};
        ])

let test_profile_chrome_trace () =
  let path = Filename.temp_file "pimsched_cli" ".trace.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_ok "profile chrome"
        (Printf.sprintf "profile gomcds -b 1 -n 8 --chrome-out %s" path)
        [ "scheduler.gomcds" ];
      let text = read_file path in
      List.iter
        (fun needle ->
          if not (contains text needle) then
            Alcotest.failf "chrome trace missing %S in:\n%s" needle text)
        [ {|"traceEvents"|}; {|"ph":"X"|}; {|"name":"layered.solve"|} ])

let test_bad_arguments_fail () =
  let code, _ = run_cli "schedule -b 9" in
  Alcotest.(check bool) "rejects unknown benchmark" true (code <> 0);
  let code, _ = run_cli "schedule -a wizardry" in
  Alcotest.(check bool) "rejects unknown algorithm" true (code <> 0)

(* Refused flags and instances: a nonzero exit that is not Cmdliner's
   uncaught-exception 125, with the message serve sends for the same
   instance. *)
let test_jobs_and_kernel_validated () =
  List.iter
    (fun (name, args, needle) ->
      let code, text = run_cli args in
      Alcotest.(check bool) (name ^ ": nonzero exit") true (code <> 0);
      Alcotest.(check bool) (name ^ ": not an uncaught exception") true
        (code <> 125 && not (contains text "uncaught exception"));
      if not (contains text needle) then
        Alcotest.failf "%s: missing %S in:\n%s" name needle text)
    [
      ("jobs 0", "schedule -b 1 -n 8 --jobs 0", "expected N >= 1");
      ("jobs negative", "compare -b 1 -n 8 --jobs=-3", "expected N >= 1");
      (* there is one cost kernel, so the flag that chose it is gone *)
      ("kernel flag retired", "schedule -b 1 -n 8 --kernel separable",
       "unknown option '--kernel'");
      ("generator refuses size", "schedule -b fft -n 6",
       "workload \"fft\" at size 6: Fft_transpose.trace: ");
      ("bad group spec", "schedule --arrays 2x2ofzz -b 1 -n 8",
       "Array_group.of_spec: bad dimensions \"zz\"");
    ]

let test_faults () =
  check_ok "faults"
    "faults gomcds --seed 42 -b 1 -n 8 --rates 0.0,0.2,0.4"
    [ "degradation ablation"; "rescheduled"; "no-resched" ]

let test_faults_json () =
  let path = Filename.temp_file "pimsched_cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_ok "faults json"
        (Printf.sprintf
           "faults gomcds --seed 42 -b 1 -n 8 --rates 0.0,0.3 --link-rate \
            0.1 --json-out %s"
           path)
        [ "ablation written" ];
      let text = read_file path in
      List.iter
        (fun needle ->
          if not (contains text needle) then
            Alcotest.failf "faults json missing %S in:\n%s" needle text)
        [
          {|"schema":"pim-sched-faults/1"|};
          {|"paid_rescheduled"|};
          {|"paid_no_reschedule"|};
          {|"dead_nodes"|};
        ])

(* The headline acceptance run: rescheduling must never lose to riding
   out the repaired plan, at any injected rate, and cost must not improve
   as the array degrades. *)
let test_faults_reschedule_beats () =
  let path = Filename.temp_file "pimsched_cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_ok "faults sweep"
        (Printf.sprintf
           "faults gomcds --seed 42 -b 3 -n 16 --mesh 8x8 --rates \
            0.0,0.1,0.2,0.3 --json-out %s"
           path)
        [ "degradation ablation" ];
      let text = read_file path in
      (* pull every "field":int occurrence, in row order *)
      let ints field =
        let key = Printf.sprintf "%S:" field in
        let out = ref [] in
        let rec go i =
          if i + String.length key <= String.length text then
            if String.sub text i (String.length key) = key then begin
              let j = ref (i + String.length key) in
              let start = !j in
              while
                !j < String.length text
                && (match text.[!j] with '0' .. '9' | '-' -> true | _ -> false)
              do
                incr j
              done;
              out := int_of_string (String.sub text start (!j - start)) :: !out;
              go !j
            end
            else go (i + 1)
        in
        go 0;
        List.rev !out
      in
      let resched = ints "paid_rescheduled" in
      let keep = ints "paid_no_reschedule" in
      Alcotest.(check int) "four rows" 4 (List.length resched);
      List.iter2
        (fun r k ->
          Alcotest.(check bool) "reschedule never loses" true (r <= k))
        resched keep;
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "cost monotone in fault rate" true
        (monotone resched);
      Alcotest.(check bool) "rescheduling wins somewhere in the sweep" true
        (List.exists2 (fun r k -> r < k) resched keep))

(* --jobs must not change any reported number: capture each command's
   output serial and at 4 domains and compare byte-for-byte. *)
let test_jobs_flag_deterministic () =
  List.iter
    (fun (name, args) ->
      let code1, serial = run_cli (args ^ " --jobs 1") in
      let code4, parallel = run_cli (args ^ " -j 4") in
      Alcotest.(check int) (name ^ ": jobs=1 exit") 0 code1;
      Alcotest.(check int) (name ^ ": jobs=4 exit") 0 code4;
      Alcotest.(check string) (name ^ ": identical output") serial parallel)
    [
      ("schedule", "schedule -b 1 -n 8 -a best-refined");
      ("compare", "compare -b 3 -n 8");
      ("table", "table --which 2 --sizes 8");
      ("sweep", "sweep --sizes 8");
    ]

let suite =
  [
    Gen.case "binary exists" test_binary_exists;
    Gen.case "compare" test_compare;
    Gen.case "schedule --simulate" test_schedule_simulate;
    Gen.case "example" test_example;
    Gen.case "table" test_table;
    Gen.case "show" test_show;
    Gen.case "replicate" test_replicate;
    Gen.case "sweep to stdout" test_sweep_stdout;
    Gen.case "export and reimport" test_export_and_reimport;
    Gen.case "plan roundtrip" test_plan_roundtrip;
    Gen.case "torus flag" test_torus_flag;
    Gen.case "stats" test_stats;
    Gen.case "profile" test_profile;
    Gen.case "schedule --metrics-json" test_metrics_json;
    Gen.case "profile --chrome-out" test_profile_chrome_trace;
    Gen.case "bad arguments fail" test_bad_arguments_fail;
    Gen.case "--jobs/--kernel validated" test_jobs_and_kernel_validated;
    Gen.case "faults" test_faults;
    Gen.case "faults --json-out" test_faults_json;
    Gen.case "faults: reschedule beats, monotone" test_faults_reschedule_beats;
    Gen.case "--jobs is output-invariant" test_jobs_flag_deterministic;
    Gen.case "serve smoke over a pipe" test_serve_smoke;
    Gen.case "serve plan = --plan-out bytes" test_serve_matches_plan_out;
    Gen.case "serve --max-arena-mb rejects" test_serve_rejects_over_budget;
  ]
