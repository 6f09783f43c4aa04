type kind = Read | Write

(* A run is a datum's references in one window: packed triples
   [rank; combined; writes], ascending by rank, one triple per referencing
   rank, [combined > 0] and [0 <= writes <= combined] — the paper's
   processor reference string with its write share. Runs are never written
   in place once stored ({!add} replaces a datum's run), so [copy] (and
   so a one-window [merge_list]) shares them between windows. *)
type t = {
  n_data : int;
  runs : int array array;
  totals : int array; (* per-datum combined total *)
}

let stride = 3

let create ~n_data =
  if n_data <= 0 then invalid_arg "Window.create: n_data must be positive";
  { n_data; runs = Array.make n_data [||]; totals = Array.make n_data 0 }

let n_data t = t.n_data

let check_data_in n_data data =
  if data < 0 || data >= n_data then
    invalid_arg (Printf.sprintf "Window: data id %d out of range" data)

let check_data t data = check_data_in t.n_data data

let check_ref n_data ~data ~proc ~count =
  check_data_in n_data data;
  if proc < 0 then invalid_arg "Window.add: negative processor rank";
  if count < 0 then invalid_arg "Window.add: negative count"

(* [slot run proc] is the first triple index whose rank is >= [proc]. *)
let slot run proc =
  let lo = ref 0 and hi = ref (Array.length run / stride) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if run.(stride * mid) < proc then lo := mid + 1 else hi := mid
  done;
  !lo

(* An edit of a stored window: one binary search, then a fresh run with
   the count folded in — O(run) per call, never shared state written. *)
let add ?(kind = Read) t ~data ~proc ~count =
  check_ref t.n_data ~data ~proc ~count;
  if count > 0 then begin
    let w = match kind with Read -> 0 | Write -> count in
    let run = t.runs.(data) in
    let i = slot run proc in
    let fresh =
      if stride * i < Array.length run && run.(stride * i) = proc then begin
        let r = Array.copy run in
        r.((stride * i) + 1) <- r.((stride * i) + 1) + count;
        r.((stride * i) + 2) <- r.((stride * i) + 2) + w;
        r
      end
      else begin
        let r = Array.make (Array.length run + stride) 0 in
        Array.blit run 0 r 0 (stride * i);
        r.(stride * i) <- proc;
        r.((stride * i) + 1) <- count;
        r.((stride * i) + 2) <- w;
        Array.blit run (stride * i) r (stride * (i + 1))
          (Array.length run - (stride * i));
        r
      end
    in
    t.runs.(data) <- fresh;
    t.totals.(data) <- t.totals.(data) + count
  end

(* ---- the append log and its one compaction ---- *)

module Builder = struct
  type window = t

  type t = {
    space : int; (* n_data *)
    (* packed quadruples [data; rank; combined; writes] in arrival order *)
    mutable log : int array;
    mutable len : int;
  }

  let width = 4

  let create ~n_data =
    if n_data <= 0 then invalid_arg "Window.create: n_data must be positive";
    { space = n_data; log = [||]; len = 0 }

  let push b ~data ~proc ~count ~writes =
    if b.len + width > Array.length b.log then begin
      let grown = Array.make (max 256 (2 * Array.length b.log)) 0 in
      Array.blit b.log 0 grown 0 b.len;
      b.log <- grown
    end;
    let l = b.log and i = b.len in
    l.(i) <- data;
    l.(i + 1) <- proc;
    l.(i + 2) <- count;
    l.(i + 3) <- writes;
    b.len <- i + width

  let add ?(kind = Read) b ~data ~proc ~count =
    check_ref b.space ~data ~proc ~count;
    if count > 0 then
      push b ~data ~proc ~count
        ~writes:(match kind with Read -> 0 | Write -> count)

  (* [sort_by l field range src dst] writes the entries of [src] into
     [dst] stably ordered by their [field] (values in [0, range)), and
     returns each value's first position in [dst]. *)
  let sort_by l field range src dst =
    let start = Array.make (range + 1) 0 in
    Array.iter
      (fun e ->
        let k = l.((width * e) + field) in
        start.(k + 1) <- start.(k + 1) + 1)
      src;
    for k = 1 to range do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let pos = Array.sub start 0 range in
    Array.iter
      (fun e ->
        let k = l.((width * e) + field) in
        dst.(pos.(k)) <- e;
        pos.(k) <- pos.(k) + 1)
      src;
    start

  (* Two stable counting passes, by rank and then by datum, put the log
     in (datum, rank) order; one walk per datum then sums equal ranks
     into an exactly sized run. O(entries + max rank + n_data), no
     hashtable. Ranks far past the entry count (a parsed trace is not
     bound to a mesh) would make the rank pass's table the cost, so
     there the rank order comes from a comparison sort instead; both
     orders are the same. *)
  let build b : window =
    let n = b.len / width and l = b.log in
    let runs = Array.make b.space [||] and totals = Array.make b.space 0 in
    if n > 0 then begin
      let max_rank = ref 0 in
      for e = 0 to n - 1 do
        max_rank := max !max_rank l.((width * e) + 1)
      done;
      let arrival = Array.init n Fun.id and by_rank = Array.make n 0 in
      if !max_rank <= (4 * n) + 1024 then
        ignore (sort_by l 1 (!max_rank + 1) arrival by_rank)
      else begin
        Array.blit arrival 0 by_rank 0 n;
        Array.stable_sort
          (fun a b -> Int.compare l.((width * a) + 1) l.((width * b) + 1))
          by_rank
      end;
      let sorted = arrival in
      let start = sort_by l 0 b.space by_rank sorted in
      for data = 0 to b.space - 1 do
        let lo = start.(data) and hi = start.(data + 1) in
        if hi > lo then begin
          let rank i = l.((width * sorted.(i)) + 1) in
          let distinct = ref 1 in
          for i = lo + 1 to hi - 1 do
            if rank i <> rank (i - 1) then incr distinct
          done;
          let run = Array.make (stride * !distinct) 0 in
          let j = ref (-stride) and total = ref 0 in
          for i = lo to hi - 1 do
            let e = width * sorted.(i) in
            if i = lo || rank i <> rank (i - 1) then begin
              j := !j + stride;
              run.(!j) <- l.(e + 1)
            end;
            run.(!j + 1) <- run.(!j + 1) + l.(e + 2);
            run.(!j + 2) <- run.(!j + 2) + l.(e + 3);
            total := !total + l.(e + 2)
          done;
          runs.(data) <- run;
          totals.(data) <- !total
        end
      done
    end;
    { n_data = b.space; runs; totals }
end

(* ---- views: each walks the datum's run, so O(its nonzeros) ---- *)

let iter_profile t data f =
  check_data t data;
  let run = t.runs.(data) in
  let i = ref 0 in
  while !i < Array.length run do
    f ~proc:run.(!i) ~count:run.(!i + 1);
    i := !i + stride
  done

let iter_kind_profile ~kind t data f =
  check_data t data;
  let run = t.runs.(data) in
  let i = ref 0 in
  while !i < Array.length run do
    let w = run.(!i + 2) in
    let count = match kind with Write -> w | Read -> run.(!i + 1) - w in
    if count > 0 then f ~proc:run.(!i) ~count;
    i := !i + stride
  done

(* A descending walk conses straight into ascending rank order. *)
let profile_with t data count_of =
  check_data t data;
  let run = t.runs.(data) in
  let acc = ref [] in
  let i = ref (Array.length run - stride) in
  while !i >= 0 do
    let c = count_of run !i in
    if c > 0 then acc := (run.(!i), c) :: !acc;
    i := !i - stride
  done;
  !acc

let profile t data = profile_with t data (fun run i -> run.(i + 1))

let read_profile t data =
  profile_with t data (fun run i -> run.(i + 1) - run.(i + 2))

let write_profile t data = profile_with t data (fun run i -> run.(i + 2))

let marginals t ~data ~cols ~rows =
  check_data t data;
  if cols <= 0 || rows <= 0 then
    invalid_arg "Window.marginals: mesh extents must be positive";
  let mx = Array.make cols 0 and my = Array.make rows 0 in
  let size = cols * rows in
  iter_profile t data (fun ~proc ~count ->
      if proc >= size then
        invalid_arg
          (Printf.sprintf
             "Window.marginals: processor rank %d outside %dx%d mesh" proc rows
             cols);
      let x = proc mod cols and y = proc / cols in
      mx.(x) <- mx.(x) + count;
      my.(y) <- my.(y) + count);
  (mx, my)

let references t data =
  check_data t data;
  t.totals.(data)

let writes t data =
  let s = ref 0 in
  iter_kind_profile ~kind:Write t data (fun ~proc:_ ~count -> s := !s + count);
  !s

let total_references t = Array.fold_left ( + ) 0 t.totals

let referenced_data t =
  let acc = ref [] in
  for data = t.n_data - 1 downto 0 do
    if t.totals.(data) > 0 then acc := data :: !acc
  done;
  !acc

let is_empty t = Array.for_all (fun c -> c = 0) t.totals

(* Runs are never written in place, so a copy shares them. *)
let copy t =
  { n_data = t.n_data; runs = Array.copy t.runs; totals = Array.copy t.totals }

(* Every triple of every window goes through one builder: one compaction
   for the whole list, linear in the windows' nonzeros. *)
let merge_list = function
  | [] -> invalid_arg "Window.merge_list: empty list"
  | [ w ] -> copy w
  | w :: _ as ws ->
      let b = Builder.create ~n_data:w.n_data in
      List.iter
        (fun x ->
          if x.n_data <> w.n_data then
            invalid_arg "Window.merge: mismatched data spaces";
          Array.iteri
            (fun data run ->
              let i = ref 0 in
              while !i < Array.length run do
                Builder.push b ~data ~proc:run.(!i) ~count:run.(!i + 1)
                  ~writes:run.(!i + 2);
                i := !i + stride
              done)
            x.runs)
        ws;
      Builder.build b

let merge a b = merge_list [ a; b ]

(* Runs are normalized (sorted, one triple per rank, no zero counts), so
   equal profiles are equal arrays. *)
let equal a b =
  a.n_data = b.n_data
  &&
  let rec go data =
    data >= a.n_data || (a.runs.(data) = b.runs.(data) && go (data + 1))
  in
  go 0

let max_proc t =
  Array.fold_left
    (fun mx run ->
      let n = Array.length run in
      if n = 0 then mx else max mx run.(n - stride))
    (-1) t.runs

(* The record, the two per-datum arrays and every stored run, as
   [Obj.reachable_words] counts them: every empty run is the one shared
   empty array, a header counted once. *)
let bytes t =
  let words = ref (4 + (2 * (1 + t.n_data))) and empty = ref 0 in
  Array.iter
    (fun run ->
      let n = Array.length run in
      if n > 0 then words := !words + 1 + n else empty := 1)
    t.runs;
  8 * (!words + !empty)

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
