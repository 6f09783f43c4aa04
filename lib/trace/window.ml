type kind = Read | Write

type t = {
  n_data : int;
  (* Dense per-datum rows indexed by processor rank, grown on demand.
     [combined.(data).(proc)] counts reads and writes together — the
     paper's reference string, and the source the separable cost kernel
     reads marginals from; [writes_.(data).(proc)] counts writes only
     (empty until the datum is first written), and a read count is their
     difference. Past a row's end every count is zero. *)
  combined : int array array;
  writes_ : int array array;
  (* per-datum combined and write totals *)
  totals : int array;
  write_totals : int array;
}

let create ~n_data =
  if n_data <= 0 then invalid_arg "Window.create: n_data must be positive";
  {
    n_data;
    combined = Array.make n_data [||];
    writes_ = Array.make n_data [||];
    totals = Array.make n_data 0;
    write_totals = Array.make n_data 0;
  }

let n_data t = t.n_data

let check_data t data =
  if data < 0 || data >= t.n_data then
    invalid_arg (Printf.sprintf "Window: data id %d out of range" data)

(* [ensure rows data len] is [rows.(data)], first grown to at least [len]
   entries; growth doubles, so a run of [add]s costs amortized O(1)
   each. *)
let ensure rows data len =
  let r = rows.(data) in
  if len <= Array.length r then r
  else begin
    let grown = Array.make (max len (2 * Array.length r)) 0 in
    Array.blit r 0 grown 0 (Array.length r);
    rows.(data) <- grown;
    grown
  end

let bump rows totals ~data ~proc ~count =
  let r = ensure rows data (proc + 1) in
  r.(proc) <- r.(proc) + count;
  totals.(data) <- totals.(data) + count

let add ?(kind = Read) t ~data ~proc ~count =
  check_data t data;
  if proc < 0 then invalid_arg "Window.add: negative processor rank";
  if count < 0 then invalid_arg "Window.add: negative count";
  if count > 0 then begin
    bump t.combined t.totals ~data ~proc ~count;
    match kind with
    | Read -> ()
    | Write -> bump t.writes_ t.write_totals ~data ~proc ~count
  end

(* [count_at row proc] reads a dense row, zero past its end. *)
let count_at row proc = if proc < Array.length row then row.(proc) else 0

(* Every profile is a descending scan consed into ascending rank order:
   the rows are already sorted, so no table copy and no sort. *)
let profile_of_row count_of len =
  let acc = ref [] in
  for proc = len - 1 downto 0 do
    let c = count_of proc in
    if c > 0 then acc := (proc, c) :: !acc
  done;
  !acc

let read_profile t data =
  check_data t data;
  let row = t.combined.(data) and w = t.writes_.(data) in
  profile_of_row (fun proc -> row.(proc) - count_at w proc) (Array.length row)

let write_profile t data =
  check_data t data;
  let w = t.writes_.(data) in
  profile_of_row (fun proc -> w.(proc)) (Array.length w)

let profile t data =
  check_data t data;
  let row = t.combined.(data) in
  profile_of_row (fun proc -> row.(proc)) (Array.length row)

let iter_profile t data f =
  check_data t data;
  let row = t.combined.(data) in
  for proc = 0 to Array.length row - 1 do
    if row.(proc) > 0 then f ~proc ~count:row.(proc)
  done

let iter_kind_profile ~kind t data f =
  check_data t data;
  match kind with
  | Write ->
      let w = t.writes_.(data) in
      for proc = 0 to Array.length w - 1 do
        if w.(proc) > 0 then f ~proc ~count:w.(proc)
      done
  | Read ->
      let row = t.combined.(data) and w = t.writes_.(data) in
      for proc = 0 to Array.length row - 1 do
        let count = row.(proc) - count_at w proc in
        if count > 0 then f ~proc ~count
      done

let marginals t ~data ~cols ~rows =
  check_data t data;
  if cols <= 0 || rows <= 0 then
    invalid_arg "Window.marginals: mesh extents must be positive";
  let mx = Array.make cols 0 and my = Array.make rows 0 in
  let row = t.combined.(data) in
  let size = cols * rows in
  (* track (x, y) incrementally instead of a div/mod per rank — the walk
     over the dense row is the hot half of every separable-kernel fill *)
  let x = ref 0 and y = ref 0 in
  for proc = 0 to Array.length row - 1 do
    let count = row.(proc) in
    if count > 0 then begin
      if proc >= size then
        invalid_arg
          (Printf.sprintf
             "Window.marginals: processor rank %d outside %dx%d mesh" proc
             rows cols);
      mx.(!x) <- mx.(!x) + count;
      my.(!y) <- my.(!y) + count
    end;
    incr x;
    if !x = cols then begin
      x := 0;
      incr y
    end
  done;
  (mx, my)

let references t data =
  check_data t data;
  t.totals.(data)

let writes t data =
  check_data t data;
  t.write_totals.(data)

let total_references t = Array.fold_left ( + ) 0 t.totals

let referenced_data t =
  let acc = ref [] in
  for data = t.n_data - 1 downto 0 do
    if t.totals.(data) > 0 then acc := data :: !acc
  done;
  !acc

let is_empty t = Array.for_all (fun c -> c = 0) t.totals

(* Merging sums the dense rows and totals directly — no per-reference
   [add] round-trip. Equal to replaying every (proc, count) reference of
   [src] into [into] (the regression property in test/test_fastpath.ml). *)
let add_row rows data src =
  let n = Array.length src in
  if n > 0 then begin
    let r = ensure rows data n in
    for proc = 0 to n - 1 do
      r.(proc) <- r.(proc) + src.(proc)
    done
  end

let merge_into ~into src =
  for data = 0 to into.n_data - 1 do
    add_row into.combined data src.combined.(data);
    add_row into.writes_ data src.writes_.(data);
    into.totals.(data) <- into.totals.(data) + src.totals.(data);
    into.write_totals.(data) <-
      into.write_totals.(data) + src.write_totals.(data)
  done

let check_same_space a b =
  if a.n_data <> b.n_data then
    invalid_arg "Window.merge: mismatched data spaces"

let copy t =
  {
    n_data = t.n_data;
    combined = Array.map Array.copy t.combined;
    writes_ = Array.map Array.copy t.writes_;
    totals = Array.copy t.totals;
    write_totals = Array.copy t.write_totals;
  }

let merge a b =
  check_same_space a b;
  let m = copy a in
  merge_into ~into:m b;
  m

(* One copy, then one row sum per further window: linear in the windows'
   rows, where a left fold of [merge] would rebuild the sum every step. *)
let merge_list = function
  | [] -> invalid_arg "Window.merge_list: empty list"
  | w :: ws ->
      let m = copy w in
      List.iter
        (fun x ->
          check_same_space m x;
          merge_into ~into:m x)
        ws;
      m

(* Rows compare as count sequences: trailing zeros from doubling growth
   are not part of a profile. *)
let rows_equal a b =
  let n = max (Array.length a) (Array.length b) in
  let rec go proc =
    proc >= n || (count_at a proc = count_at b proc && go (proc + 1))
  in
  go 0

let equal a b =
  a.n_data = b.n_data
  && begin
       let ok = ref true in
       for data = 0 to a.n_data - 1 do
         if
           not
             (rows_equal a.combined.(data) b.combined.(data)
             && rows_equal a.writes_.(data) b.writes_.(data))
         then ok := false
       done;
       !ok
     end

let max_proc t =
  let mx = ref (-1) in
  Array.iter
    (fun row ->
      for proc = Array.length row - 1 downto !mx + 1 do
        if row.(proc) > 0 && proc > !mx then mx := proc
      done)
    t.combined;
  !mx

let pp fmt t =
  let data = referenced_data t in
  Format.fprintf fmt "@[<v>window (%d data referenced, %d refs total)"
    (List.length data) (total_references t);
  List.iter
    (fun d ->
      Format.fprintf fmt "@ data %d:" d;
      List.iter
        (fun (p, c) -> Format.fprintf fmt " p%d x%d" p c)
        (profile t d);
      match write_profile t d with
      | [] -> ()
      | ws ->
          Format.fprintf fmt " (writes:";
          List.iter (fun (p, c) -> Format.fprintf fmt " p%d x%d" p c) ws;
          Format.fprintf fmt ")")
    data;
  Format.fprintf fmt "@]"
