(* The hashtable window the dense-row [Reftrace.Window] is pinned
   against: per datum and per kind, a table from processor rank to
   reference count. Every profile is a table fold and a sort, [merge] adds
   tables entry-wise into fresh ones, and [merge_list] is the left fold of
   pairwise [merge], rebuilding the sum once per window. Validation and its
   messages are those of [Reftrace.Window]. *)

type t = {
  n_data : int;
  reads : (int, int) Hashtbl.t array;
  writes_ : (int, int) Hashtbl.t array;
}

let create ~n_data =
  if n_data <= 0 then invalid_arg "Window.create: n_data must be positive";
  {
    n_data;
    reads = Array.init n_data (fun _ -> Hashtbl.create 4);
    writes_ = Array.init n_data (fun _ -> Hashtbl.create 1);
  }

let n_data t = t.n_data

let check_data t data =
  if data < 0 || data >= t.n_data then
    invalid_arg (Printf.sprintf "Window: data id %d out of range" data)

let table t (kind : Reftrace.Window.kind) data =
  match kind with Read -> t.reads.(data) | Write -> t.writes_.(data)

let bump tbl proc count =
  match Hashtbl.find_opt tbl proc with
  | Some c -> Hashtbl.replace tbl proc (c + count)
  | None -> Hashtbl.add tbl proc count

let add ?(kind = Reftrace.Window.Read) t ~data ~proc ~count =
  check_data t data;
  if proc < 0 then invalid_arg "Window.add: negative processor rank";
  if count < 0 then invalid_arg "Window.add: negative count";
  if count > 0 then bump (table t kind data) proc count

let sorted tbl =
  Hashtbl.fold
    (fun proc count acc -> if count > 0 then (proc, count) :: acc else acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let read_profile t data =
  check_data t data;
  sorted t.reads.(data)

let write_profile t data =
  check_data t data;
  sorted t.writes_.(data)

(* reads and writes summed per rank *)
let profile t data =
  check_data t data;
  let sum = Hashtbl.copy t.reads.(data) in
  Hashtbl.iter (fun proc count -> bump sum proc count) t.writes_.(data);
  sorted sum

(* hashtable order: only commutative folds may use it *)
let iter_kind_profile ~kind t data f =
  check_data t data;
  Hashtbl.iter
    (fun proc count -> if count > 0 then f ~proc ~count)
    (table t kind data)

let total tbl = Hashtbl.fold (fun _ c acc -> acc + c) tbl 0

let references t data =
  check_data t data;
  total t.reads.(data) + total t.writes_.(data)

let writes t data =
  check_data t data;
  total t.writes_.(data)

let total_references t =
  let s = ref 0 in
  for data = 0 to t.n_data - 1 do
    s := !s + references t data
  done;
  !s

let merge a b =
  if a.n_data <> b.n_data then
    invalid_arg "Window.merge: mismatched data spaces";
  let m = create ~n_data:a.n_data in
  List.iter
    (fun src ->
      for data = 0 to a.n_data - 1 do
        Hashtbl.iter (bump m.reads.(data)) src.reads.(data);
        Hashtbl.iter (bump m.writes_.(data)) src.writes_.(data)
      done)
    [ a; b ];
  m

let copy t = merge t (create ~n_data:t.n_data)

let merge_list = function
  | [] -> invalid_arg "Window.merge_list: empty list"
  | w :: ws -> List.fold_left merge (copy w) ws

let equal a b =
  a.n_data = b.n_data
  && List.for_all
       (fun data ->
         read_profile a data = read_profile b data
         && write_profile a data = write_profile b data)
       (List.init a.n_data Fun.id)

let max_proc t =
  let mx = ref (-1) in
  Array.iter
    (Array.iter (Hashtbl.iter (fun proc c -> if c > 0 then mx := max !mx proc)))
    [| t.reads; t.writes_ |];
  !mx

(* [of_window w] replays a production window's per-kind profiles. *)
let of_window w =
  let n_data = Reftrace.Window.n_data w in
  let t = create ~n_data in
  for data = 0 to n_data - 1 do
    List.iter
      (fun (proc, count) -> add t ~data ~proc ~count)
      (Reftrace.Window.read_profile w data);
    List.iter
      (fun (proc, count) -> add ~kind:Write t ~data ~proc ~count)
      (Reftrace.Window.write_profile w data)
  done;
  t

(* [agrees t w]: every per-datum view of [t] equals the production
   window [w]'s. *)
let agrees t w =
  n_data t = Reftrace.Window.n_data w
  && List.for_all
       (fun data ->
         read_profile t data = Reftrace.Window.read_profile w data
         && write_profile t data = Reftrace.Window.write_profile w data
         && profile t data = Reftrace.Window.profile w data
         && references t data = Reftrace.Window.references w data
         && writes t data = Reftrace.Window.writes w data)
       (List.init (n_data t) Fun.id)
  && total_references t = Reftrace.Window.total_references w
  && max_proc t = Reftrace.Window.max_proc w
