let mesh = Gen.mesh44

let trace_equal a b =
  Reftrace.Data_space.arrays (Reftrace.Trace.space a)
  = Reftrace.Data_space.arrays (Reftrace.Trace.space b)
  && Reftrace.Trace.n_windows a = Reftrace.Trace.n_windows b
  && List.for_all2 Reftrace.Window.equal (Reftrace.Trace.windows a)
       (Reftrace.Trace.windows b)

let test_roundtrip_simple () =
  let t = Gen.trace mesh ~n_data:3 [ [ (0, 1, 2); (2, 5, 1) ]; [ (1, 3, 4) ] ] in
  let t' = Reftrace.Serial.of_string (Reftrace.Serial.to_string t) in
  Alcotest.(check bool) "equal" true (trace_equal t t')

let test_roundtrip_benchmark () =
  let t = Workloads.Benchmarks.trace Workloads.Benchmarks.B3 ~n:8 mesh in
  let t' = Reftrace.Serial.of_string (Reftrace.Serial.to_string t) in
  Alcotest.(check bool) "equal" true (trace_equal t t');
  Alcotest.(check int)
    "same references"
    (Reftrace.Trace.total_references t)
    (Reftrace.Trace.total_references t')

let test_format_shape () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 1, 2) ] ] in
  let s = Reftrace.Serial.to_string t in
  Alcotest.(check bool) "header" true
    (String.length s > 20 && String.sub s 0 20 = "# pim-sched trace v1");
  Alcotest.(check bool) "has window line" true
    (List.mem "window 0" (String.split_on_char '\n' s));
  Alcotest.(check bool) "has ref line" true
    (List.mem "ref 0 1 2" (String.split_on_char '\n' s))

let test_comments_and_blanks_ignored () =
  let input =
    "# a comment\n\narray A 1 2\n# another\nwindow 0\n\nref 0 3 2\nref 1 0 1\n"
  in
  let t = Reftrace.Serial.of_string input in
  Alcotest.(check int) "one window" 1 (Reftrace.Trace.n_windows t);
  Alcotest.(check int) "datum 0 refs" 2
    (Reftrace.Window.references (Reftrace.Trace.window t 0) 0)

let check_fails input expected =
  Alcotest.check_raises "parse error" (Failure expected) (fun () ->
      ignore (Reftrace.Serial.of_string input))

let test_parse_errors () =
  check_fails "window 0\n"
    "Serial.of_string: line 1: no array declared before windows";
  check_fails "array A 1 1\nref 0 0 1\n"
    "Serial.of_string: line 2: ref before any window";
  check_fails "array A 1 1\nwindow 1\n"
    "Serial.of_string: line 2: expected window 0, got 1";
  check_fails "array A 1 1\nwindow 0\narray B 1 1\n"
    "Serial.of_string: line 3: array declarations must precede windows";
  check_fails "array A 1 1\nwindow 0\nwibble\n"
    "Serial.of_string: line 3: unrecognized line \"wibble\"";
  check_fails "array A x 1\n"
    "Serial.of_string: line 1: malformed array dimensions";
  check_fails "" "Serial.of_string: empty input";
  check_fails "array A 1 1\nwindow 0\nref 0 0 -1\n"
    "Serial.of_string: line 3: Window.add: negative count"

let test_out_of_range_data_rejected () =
  check_fails "array A 1 1\nwindow 0\nref 5 0 1\n"
    "Serial.of_string: line 3: Window: data id 5 out of range"

let test_file_roundtrip () =
  let t = Workloads.Lu.trace ~n:6 mesh in
  let path = Filename.temp_file "pimsched" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Reftrace.Serial.save t path;
      let t' = Reftrace.Serial.load path in
      Alcotest.(check bool) "equal" true (trace_equal t t'))

let prop_roundtrip_random =
  let arb = Gen.trace_arbitrary ~max_data:6 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make ~name:"serialize/parse roundtrip on random traces"
    ~count:100 arb (fun t ->
      trace_equal t (Reftrace.Serial.of_string (Reftrace.Serial.to_string t)))

(* ---- the one-pass scanner against the split-based parser ---- *)

(* Whatever a parse did: the trace's text, or the exception it raised. *)
let outcome parse text =
  match parse text with
  | t -> Ok (Reftrace.Serial.to_string t, Reftrace.Trace.n_windows t)
  | exception e -> Error (Printexc.to_string e)

(* Lines near and off the grammar: padding, tabs, carriage returns,
   doubled spaces, signs, radix prefixes, underscores, overlong numbers,
   wrong field counts and unknown words, among well-formed lines (most
   of them, so a text is read well past its first lines). *)
let line_gen =
  let open QCheck.Gen in
  let small = map string_of_int (int_range 0 3) in
  let odd =
    oneofl
      [
        "9"; "-1"; "+2"; "0x3"; "0b1"; "1_0"; "007"; ""; "x";
        "99999999999999999999"; "1000000000000000000";
      ]
  in
  let refline word num =
    map
      (fun (w, (d, p, c)) -> String.concat " " [ w; d; p; c ])
      (pair word (triple num num num))
  in
  let pad =
    frequency
      [
        (6, return ("", ""));
        ( 1,
          pair (oneofl [ " "; "\t"; "  " ]) (oneofl [ " "; "\r"; "\t"; " \r" ])
        );
      ]
  in
  map2
    (fun (l, r) body -> l ^ body ^ r)
    pad
    (frequency
       [
         (12, refline (oneofl [ "ref"; "write" ]) small);
         ( 2,
           refline
             (oneofl [ "ref"; "write"; "REF"; "refs" ])
             (frequency [ (2, small); (1, odd) ]) );
         (1, map (Printf.sprintf "window %d") (int_range 1 3));
         (1, oneofl [ "array A 2 2"; "array B 1 3 2"; "array  A 1 1" ]);
         (1, oneofl [ "array A 2"; "array A 2 2 2 2"; "array A 0 2" ]);
         ( 1,
           oneofl
             [
               ""; "# note"; "wibble"; "window"; "ref 0 1"; "ref 0 1 2 3";
               "ref  0 1 2"; "ref\t0 1 2"; "window 0 1";
             ] );
       ])

(* Most texts open with a well-formed header, so the lines after it are
   reached. *)
let text_gen =
  let open QCheck.Gen in
  map3
    (fun header lines final_newline ->
      (if header then "array A 2 2\nwindow 0\n" else "")
      ^ String.concat "\n" lines
      ^ if final_newline then "\n" else "")
    (map (fun k -> k > 0) (int_range 0 3))
    (list_size (int_range 0 14) line_gen)
    bool

let prop_scanner_matches_split_parser =
  QCheck.Test.make ~name:"one-pass scanner = split-based parser" ~count:1000
    (QCheck.make ~print:String.escaped text_gen) (fun text ->
      outcome Reftrace.Serial.of_string text
      = outcome Oracle.Serial_split.of_string text)

(* The same, on texts that parse: every well-formed line a generated
   workload writes. *)
let test_scanner_on_workloads () =
  List.iter
    (fun t ->
      let text = Reftrace.Serial.to_string t in
      Alcotest.(check bool)
        "same trace" true
        (outcome Reftrace.Serial.of_string text
        = outcome Oracle.Serial_split.of_string text))
    [
      Workloads.Benchmarks.trace Workloads.Benchmarks.B3 ~n:8 mesh;
      Workloads.Lu.trace ~n:8 mesh;
    ]

(* [~processors] refuses a rank at or past the target as it is read. *)
let test_processor_limit () =
  let text = "array A 2 2\nwindow 0\nref 0 3 1\nwindow 1\nwrite 1 4 2\n" in
  Alcotest.check_raises "rank past the limit"
    (Failure
       "Serial.of_string: line 5: processor rank 4 out of range (4 \
        processors)") (fun () ->
      ignore (Reftrace.Serial.of_string ~processors:4 text));
  Alcotest.check_raises "huge rank, generic path"
    (Failure
       "Serial.of_string: line 3: processor rank 20000000 out of range (4 \
        processors)") (fun () ->
      ignore
        (Reftrace.Serial.of_string ~processors:4
           "array A 2 2\nwindow 0\nref +0 20000000 1\n"));
  let t = Reftrace.Serial.of_string ~processors:5 text in
  Alcotest.(check int) "in range" 4
    (Reftrace.Window.max_proc (Reftrace.Trace.window t 1));
  (* a zero count adds nothing, so it is not refused *)
  let t =
    Reftrace.Serial.of_string ~processors:4
      "array A 2 2\nwindow 0\nref 0 20000000 0\n"
  in
  Alcotest.(check bool) "zero count kept out" true
    (Reftrace.Window.is_empty (Reftrace.Trace.window t 0))

let suite =
  [
    Gen.case "roundtrip simple" test_roundtrip_simple;
    Gen.case "roundtrip benchmark" test_roundtrip_benchmark;
    Gen.case "format shape" test_format_shape;
    Gen.case "comments and blanks" test_comments_and_blanks_ignored;
    Gen.case "parse errors" test_parse_errors;
    Gen.case "out-of-range data rejected" test_out_of_range_data_rejected;
    Gen.case "file roundtrip" test_file_roundtrip;
    Gen.to_alcotest prop_roundtrip_random;
    Gen.to_alcotest prop_scanner_matches_split_parser;
    Gen.case "scanner on workloads" test_scanner_on_workloads;
    Gen.case "processor limit" test_processor_limit;
  ]
