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
