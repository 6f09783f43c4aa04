(* The list head with room, without the list: [Memory.admit_row] is the
   free-slot mask (banned ranks included), and the lowest-(cost, rank)
   admitted entry of the row is where a walk of the full sorted list
   would stop. *)
let choose memory row =
  match Pathgraph.Layered.argmin ~admit:(Pim.Memory.admit_row memory) row with
  | -1 -> None
  | rank -> Some rank

let take memory rank =
  let ok = Pim.Memory.allocate memory rank in
  assert ok;
  rank

let place memory row =
  match choose memory row with
  | Some rank -> take memory rank
  | None -> failwith "Processor_list.place: every processor is full"
