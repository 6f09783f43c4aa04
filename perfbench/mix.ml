(* The three traffic mixes, all closed loops with one request in flight.
   Each is a pure function of the seed: the daemon only ever sees the
   generated request lines. *)

type t = {
  name : string;
  cache_mb : int option;  (** [--max-cache-mb]; [None] keeps the default *)
  prime : Spec.t list;  (** one per reused instance, answered during set-up *)
  requests : Spec.t array;
      (** sent one at a time, each after the previous answer, cycling
          until time is up *)
}

let daemon_args w =
  [ "serve"; "--jobs"; "1" ]
  @
  match w.cache_mb with
  | None -> []
  | Some mb -> [ "--max-cache-mb"; string_of_int mb ]

let server_config w =
  let d = Serve.Server.default_config () in
  {
    d with
    Serve.Server.jobs = 1;
    max_cache_bytes =
      (match w.cache_mb with
      | None -> d.Serve.Server.max_cache_bytes
      | Some mb -> mb * 1024 * 1024);
  }

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let pick st a = a.(Random.State.int st (Array.length a))

(* ---- dp-closed: the layered DP dominates every request ---- *)

let lu16 = Spec.generated "1" 16

let dp_closed seed =
  (* per round of eight: the median falls mid-band in the LU n=32 answers
     and the tail (the tenth-slowest of about sixty) mid-band in the
     slower LU n=16 ones, never on an edge between two kinds *)
  let lu32 = Spec.make ~rows:8 ~cols:8 (Spec.generated "1" 32) "gomcds" in
  let kinds =
    [|
      Spec.make lu16 "gomcds";
      Spec.make lu16 "gomcds";
      lu32;
      lu32;
      lu32;
      lu32;
      Spec.make lu16 "gomcds-grouped";
      Spec.make ~arrays:"2x2of8x8" lu16 "gomcds";
    |]
  in
  let st = rng seed 1 in
  (* whole shuffled rounds, so every run sees the same mix *)
  let rounds = Array.init 64 (fun _ -> shuffle st kinds) in
  {
    name = "dp-closed";
    cache_mb = None;
    prime =
      [
        Spec.make lu16 "scds";
        Spec.make ~rows:8 ~cols:8 (Spec.generated "1" 32) "scds";
        Spec.make ~arrays:"2x2of8x8" lu16 "scds";
      ];
    requests = Array.concat (Array.to_list rounds);
  }

(* ---- warm-closed: short requests on warm, cached instances ---- *)

let short_algorithms = [| "scds"; "lomcds"; "lomcds-grouped"; "row-wise" |]

(* Eight in eleven requests are the slowest short kind, so the median of
   the mix falls well inside their band rather than on the edge between
   two kinds. *)
let weighted_short =
  Array.append [| "scds"; "lomcds"; "row-wise" |]
    (Array.make 8 "lomcds-grouped")

let warm_closed seed =
  let instances =
    [| lu16; Spec.generated "5" 16; Spec.generated "cholesky" 16 |]
  in
  let st = rng seed 2 in
  let request _ =
    let timed =
      if Random.State.int st 10 <> 0 then None
      else if Random.State.bool st then Some Spec.Unit_model
      else Some Spec.Wormhole
    in
    Spec.make
      ?fault_seed:
        (if Random.State.bool st then Some (1 + Random.State.int st 4)
         else None)
      ?timed
      ?deadline_ms:(if Random.State.int st 5 = 0 then Some 30_000 else None)
      (pick st instances) (pick st weighted_short)
  in
  {
    name = "warm-closed";
    cache_mb = None;
    prime = Array.to_list (Array.map (fun s -> Spec.make s "scds") instances);
    requests = Array.init 4000 request;
  }

(* ---- cold-churn: every request builds a new context ---- *)

let families =
  [ "1"; "2"; "3"; "4"; "5"; "stencil"; "tc"; "fft"; "cholesky"; "reduction" ]

(* fft only at power-of-two sizes *)
let cells =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun size ->
          if f = "fft" && size <> 16 then []
          else List.map (fun m -> (f, size, m)) [ 8; 16 ])
        [ 16; 24 ])
    families

(* Cells whose trace text is 100-170 KB: their requests ship the trace
   inline (a fifth of the mix), so parsing is exercised at a realistic
   line size. *)
let inline_cells =
  [
    ("1", 24, 8);
    ("1", 24, 16);
    ("2", 16, 8);
    ("3", 16, 8);
    ("4", 24, 8);
    ("stencil", 16, 16);
    ("tc", 16, 8);
    ("tc", 16, 16);
  ]

let partitions = [| "block-2d"; "row-blocks"; "col-blocks"; "cyclic-2d" |]

(* The instance variants of one cell: 4 partitions x torus x capacity, so
   a cell's key does not repeat for 16 rounds. *)
let variants =
  Array.of_list
    (List.concat_map
       (fun p ->
         List.concat_map
           (fun torus -> List.map (fun unb -> (p, torus, unb)) [ false; true ])
           [ false; true ])
       (Array.to_list partitions))

let cold_churn seed =
  let st = rng seed 3 in
  let cells = Array.of_list cells in
  let order = Array.map (fun _ -> shuffle st variants) cells in
  (* an inline text depends on the cell and partition only; its key still
     differs per variant, since torus and capacity are part of it *)
  let texts = Hashtbl.create 32 in
  let text (f, size, m) partition =
    let key = (f, size, m, partition) in
    match Hashtbl.find_opt texts key with
    | Some t -> t
    | None ->
        let gen = Spec.generated ~partition f size in
        let r = Spec.make ~rows:m ~cols:m gen "scds" in
        let t = Reftrace.Serial.to_string (Spec.trace_of r (Spec.mesh_of r)) in
        Hashtbl.replace texts key t;
        t
  in
  let request round ci =
    let ((f, size, m) as cell) = cells.(ci) in
    let partition, torus, unbounded = order.(ci).(round) in
    let source =
      if List.mem cell inline_cells then Spec.Inline (text cell partition)
      else Spec.generated ~partition f size
    in
    Spec.make ~rows:m ~cols:m ~torus ~unbounded source
      (pick st short_algorithms)
  in
  (* whole shuffled rounds over every cell keep the per-run mix fixed;
     after the last round the list repeats, long after the small cache
     has evicted those keys *)
  let rounds =
    List.init (Array.length variants) (fun round ->
        Array.map (request round)
          (shuffle st (Array.init (Array.length cells) Fun.id)))
  in
  {
    name = "cold-churn";
    cache_mb = Some 8;
    prime = [];
    requests = Array.concat rounds;
  }

let names = [ "dp-closed"; "warm-closed"; "cold-churn" ]

let make name seed =
  match name with
  | "dp-closed" -> dp_closed seed
  | "warm-closed" -> warm_closed seed
  | "cold-churn" -> cold_churn seed
  | s -> invalid_arg ("unknown workload " ^ s)
