(* Sample statistics and the metric record the benchmark prints. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* linear interpolation between closest ranks *)
let quantile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

(* The highest percentile with at least ten samples beyond it: the
   (n-10)-th smallest value, with its percentile. Below eleven samples no
   percentile qualifies, and the maximum stands in. *)
let tail a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then (nan, 0.)
  else
    let k = if n <= 10 then n - 1 else n - 11 in
    (a.(k), 100. *. float_of_int (k + 1) /. float_of_int n)

let sum a = Array.fold_left ( +. ) 0. a

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_metrics ms =
  List.iter
    (fun x -> Printf.printf "  %-44s %14.4f %s\n" x.name x.value x.unit_)
    ms

(* The last stdout line: the machine-readable result. *)
let result_line ~ok ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
          (if Float.is_finite x.value then x.value else 0.)
          x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    ok attempted failed
    (String.concat ", " fields)
