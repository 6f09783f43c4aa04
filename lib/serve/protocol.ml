let version = "pim-sched-serve/1"

type mesh_spec = { rows : int; cols : int; torus : bool }

type fault_spec =
  | Fault_explicit of {
      dead_arrays : int list;
      dead_nodes : int list;
      dead_links : (int * int) list;
    }
  | Fault_seeded of {
      seed : int;
      array_rate : float;
      node_rate : float;
      link_rate : float;
    }

type instance = {
  workload : string;
  trace_text : string option;
  size : int;
  partition : string;
  mesh : mesh_spec;
  arrays : string option;
  inter_cost : int;
  unbounded : bool;
}

type op =
  | Solve of {
      instance : instance;
      algorithm : string;
      fault : fault_spec option;
      timed : Pim.Link_model.t option;
      deadline_ms : int option;
    }
  | Ping
  | Stats
  | Shutdown

type request = { id : Obs.Json.t; op : op }

type error = {
  code : string;
  message : string;
  offset : int option;
  extra : (string * Obs.Json.t) list;
}

let make_error ?offset ?(extra = []) code message =
  { code; message; offset; extra }

let bad ?offset message = make_error ?offset "bad-request" message

exception Reject of error

let reject ?offset message = raise (Reject (bad ?offset message))

(* ---- field accessors over a decoded object ---- *)

let field fields k = List.assoc_opt k fields

let get_string fields k ~default =
  match field fields k with
  | None -> default
  | Some (Obs.Json.String s) -> s
  | Some _ -> reject (Printf.sprintf "field %S must be a string" k)

let get_opt_string fields k =
  match field fields k with
  | None -> None
  | Some (Obs.Json.String s) -> Some s
  | Some _ -> reject (Printf.sprintf "field %S must be a string" k)

let get_int fields k ~default =
  match field fields k with
  | None -> default
  | Some (Obs.Json.Int i) -> i
  | Some _ -> reject (Printf.sprintf "field %S must be an integer" k)

let get_bool fields k ~default =
  match field fields k with
  | None -> default
  | Some (Obs.Json.Bool b) -> b
  | Some _ -> reject (Printf.sprintf "field %S must be a boolean" k)

let get_float fields k ~default =
  match field fields k with
  | None -> default
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | Some _ -> reject (Printf.sprintf "field %S must be a number" k)

let get_obj fields k =
  match field fields k with
  | None -> None
  | Some (Obs.Json.Obj o) -> Some o
  | Some _ -> reject (Printf.sprintf "field %S must be an object" k)

let get_int_list fields k =
  match field fields k with
  | None -> []
  | Some (Obs.Json.List xs) ->
      List.map
        (function
          | Obs.Json.Int i -> i
          | _ -> reject (Printf.sprintf "field %S must hold integers" k))
        xs
  | Some _ -> reject (Printf.sprintf "field %S must be a list" k)

let get_pair_list fields k =
  match field fields k with
  | None -> []
  | Some (Obs.Json.List xs) ->
      List.map
        (function
          | Obs.Json.List [ Obs.Json.Int a; Obs.Json.Int b ] -> (a, b)
          | _ ->
              reject
                (Printf.sprintf "field %S must hold [src,dst] pairs" k))
        xs
  | Some _ -> reject (Printf.sprintf "field %S must be a list" k)

(* ---- request decoding ---- *)

let decode_mesh fields =
  match get_obj fields "mesh" with
  | None -> { rows = 4; cols = 4; torus = false }
  | Some m ->
      let rows = get_int m "rows" ~default:4 in
      let cols = get_int m "cols" ~default:4 in
      if rows < 1 || cols < 1 then reject "mesh shape must be positive";
      { rows; cols; torus = get_bool m "torus" ~default:false }

(* The cost kernel is no longer a choice: [/1] clients that still spell
   out the only one left are accepted, anything else is refused. *)
let check_kernel fields =
  match get_string fields "kernel" ~default:"separable" with
  | "separable" -> ()
  | s ->
      reject
        (Printf.sprintf
           "field \"kernel\": %S is not supported (only \"separable\" is)" s)

let decode_fault fields =
  match get_obj fields "fault" with
  | None -> None
  | Some f ->
      if field f "seed" <> None then
        Some
          (Fault_seeded
             {
               seed = get_int f "seed" ~default:0;
               array_rate = get_float f "array_rate" ~default:0.;
               node_rate = get_float f "node_rate" ~default:0.;
               link_rate = get_float f "link_rate" ~default:0.;
             })
      else
        Some
          (Fault_explicit
             {
               dead_arrays = get_int_list f "dead_arrays";
               dead_nodes = get_int_list f "dead_nodes";
               dead_links = get_pair_list f "dead_links";
             })

let decode_link_model fields =
  if not (get_bool fields "timed" ~default:false) then None
  else
    let m =
      match get_obj fields "link_model" with None -> [] | Some o -> o
    in
    let queue_depth =
      match field m "queue_depth" with
      | None | Some Obs.Json.Null -> None
      | Some (Obs.Json.Int i) -> Some i
      | Some _ -> reject "field \"queue_depth\" must be an integer"
    in
    match
      Pim.Link_model.create
        ~bandwidth:(get_int m "bandwidth" ~default:1)
        ~flit:(get_int m "flit" ~default:1)
        ~wormhole:(get_bool m "wormhole" ~default:false)
        ?queue_depth
        ~compute_cycles:(get_int m "compute_cycles" ~default:0)
        ()
    with
    | model -> Some model
    | exception Invalid_argument m -> reject m

let decode_instance fields =
  let trace_text = get_opt_string fields "trace" in
  let workload = get_string fields "workload" ~default:"1" in
  let size = get_int fields "size" ~default:8 in
  if size < 1 then reject "field \"size\" must be positive";
  let inter_cost = get_int fields "inter_cost" ~default:10 in
  if inter_cost < 1 then reject "field \"inter_cost\" must be >= 1";
  check_kernel fields;
  {
    workload;
    trace_text;
    size;
    partition = get_string fields "partition" ~default:"block-2d";
    mesh = decode_mesh fields;
    arrays = get_opt_string fields "arrays";
    inter_cost;
    unbounded = get_bool fields "unbounded" ~default:false;
  }

let decode_deadline fields =
  match field fields "deadline_ms" with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Int ms) ->
      if ms < 0 then reject "field \"deadline_ms\" must be >= 0";
      Some ms
  | Some _ -> reject "field \"deadline_ms\" must be an integer"

let decode line =
  match Obs.Json.parse line with
  | Error e ->
      Error
        ( Obs.Json.Null,
          make_error ~offset:e.Obs.Json.offset "parse-error"
            e.Obs.Json.message )
  | Ok (Obs.Json.Obj fields) -> (
      let id =
        match field fields "id" with Some v -> v | None -> Obs.Json.Null
      in
      match
        match get_string fields "op" ~default:"solve" with
        | "solve" ->
            Solve
              {
                instance = decode_instance fields;
                algorithm = get_string fields "algorithm" ~default:"gomcds";
                fault = decode_fault fields;
                timed = decode_link_model fields;
                deadline_ms = decode_deadline fields;
              }
        | "ping" -> Ping
        | "stats" -> Stats
        | "shutdown" -> Shutdown
        | s -> reject (Printf.sprintf "unknown op %S" s)
      with
      | op -> Ok { id; op }
      | exception Reject e -> Error (id, e))
  | Ok _ ->
      Error (Obs.Json.Null, bad "request must be a JSON object")

(* ---- response encoding ---- *)

let ok_response id result =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("id", id); ("ok", Obs.Json.Bool true); ("result", Obs.Json.Obj result);
       ])

let request_id line =
  match Obs.Json.parse line with
  | Ok (Obs.Json.Obj fields) -> (
      match field fields "id" with Some v -> v | None -> Obs.Json.Null)
  | Ok _ | Error _ -> Obs.Json.Null

let error_response id (e : error) =
  let fields =
    [
      ("code", Obs.Json.String e.code);
      ("message", Obs.Json.String e.message);
    ]
    @ (match e.offset with
      | None -> []
      | Some o -> [ ("offset", Obs.Json.Int o) ])
    @ e.extra
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("id", id);
         ("ok", Obs.Json.Bool false);
         ("error", Obs.Json.Obj fields);
       ])
