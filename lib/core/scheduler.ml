type algorithm =
  | Row_wise
  | Column_wise
  | Block_2d
  | Cyclic
  | Random of int
  | Scds
  | Lomcds
  | Gomcds
  | Lomcds_grouped
  | Gomcds_grouped
  | Gomcds_refined
  | Best_refined
  | Annealing of int
  | Online of float

let all =
  [
    Row_wise;
    Column_wise;
    Block_2d;
    Cyclic;
    Random 42;
    Scds;
    Lomcds;
    Gomcds;
    Lomcds_grouped;
    Gomcds_grouped;
    Gomcds_refined;
    Best_refined;
  ]

let name = function
  | Row_wise -> "row-wise"
  | Column_wise -> "column-wise"
  | Block_2d -> "block-2d"
  | Cyclic -> "cyclic"
  | Random _ -> "random"
  | Scds -> "scds"
  | Lomcds -> "lomcds"
  | Gomcds -> "gomcds"
  | Lomcds_grouped -> "lomcds-grouped"
  | Gomcds_grouped -> "gomcds-grouped"
  | Gomcds_refined -> "gomcds-refined"
  | Best_refined -> "best-refined"
  | Annealing _ -> "annealing"
  | Online _ -> "online"

let valid_names = List.map name all @ [ "annealing"; "online" ]

let of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "row-wise" -> Row_wise
  | "column-wise" -> Column_wise
  | "block-2d" -> Block_2d
  | "cyclic" -> Cyclic
  | "random" -> Random 42
  | "scds" -> Scds
  | "lomcds" -> Lomcds
  | "gomcds" -> Gomcds
  | "lomcds-grouped" -> Lomcds_grouped
  | "gomcds-grouped" -> Gomcds_grouped
  | "gomcds-refined" -> Gomcds_refined
  | "best-refined" -> Best_refined
  | "annealing" -> Annealing 0xBEEF
  | "online" -> Online 2.
  | _ ->
      invalid_arg
        (Printf.sprintf "Scheduler.of_name: unknown %S (expected one of: %s)"
           s
           (String.concat ", " valid_names))

let solve problem algorithm =
  Obs.Span.with_ ~name:("scheduler." ^ name algorithm) @@ fun () ->
  let mesh = Problem.mesh problem in
  let trace = Problem.trace problem in
  let space = Problem.space problem in
  let static placement = Baseline.schedule placement mesh trace in
  match algorithm with
  | Row_wise -> static (Baseline.row_wise mesh space)
  | Column_wise -> static (Baseline.column_wise mesh space)
  | Block_2d -> static (Baseline.block_2d mesh space)
  | Cyclic -> static (Baseline.cyclic mesh space)
  | Random seed -> static (Baseline.random ~seed mesh space)
  | Scds -> Scds.schedule problem
  | Lomcds -> Lomcds.schedule problem
  | Gomcds -> Gomcds.schedule problem
  | Lomcds_grouped -> Grouping.schedule ~centers:`Local problem
  | Gomcds_grouped -> Grouping.schedule ~centers:`Global problem
  | Gomcds_refined -> Refine.refined problem
  | Best_refined -> Refine.best_schedule problem
  | Annealing seed -> fst (Annealing.anneal ~seed problem)
  | Online theta -> Online.schedule ~theta problem

let evaluate_in problem algorithm =
  let schedule = solve problem algorithm in
  (schedule, Schedule.cost schedule (Problem.trace problem))

let improvement ~baseline ~cost =
  if baseline = 0 then 0.
  else float_of_int (baseline - cost) /. float_of_int baseline *. 100.
