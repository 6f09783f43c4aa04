(* The mesh-range check of a whole trace, which no production path needs:
   parsing refuses an out-of-range rank as it reads it
   ([Reftrace.Serial.of_string ~processors]) and groups check their own
   ([Multi.Array_group.validate_trace]). Tests use it to check that
   generated traces fit their mesh. *)

(* [validate t mesh] raises [Invalid_argument] naming the first window
   that references a rank [mesh] does not have. *)
let validate t mesh =
  let limit = Pim.Mesh.size mesh in
  for i = 0 to Reftrace.Trace.n_windows t - 1 do
    let mx = Reftrace.Window.max_proc (Reftrace.Trace.window t i) in
    if mx >= limit then
      invalid_arg
        (Printf.sprintf
           "Trace.validate: window %d references rank %d but mesh has %d \
            processors"
           i mx limit)
  done

(* One reference of the flat stream [Window_builder] cuts into windows. *)
type event = {
  step : int;  (** logical execution step the reference occurs at *)
  proc : int;  (** processor rank issuing the reference *)
  data : int;  (** dense data id *)
  kind : Reftrace.Window.kind;
}

let event ?(kind = Reftrace.Window.Read) ~step ~proc ~data () =
  { step; proc; data; kind }

(* [drop_empty_windows t] removes windows with no references, keeping at
   least one window. *)
let drop_empty_windows t =
  let open Reftrace in
  match List.filter (fun w -> not (Window.is_empty w)) (Trace.windows t) with
  | [] -> Trace.create (Trace.space t) [ Trace.window t 0 ]
  | ws -> Trace.create (Trace.space t) ws
