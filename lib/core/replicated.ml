type t = {
  copies : int list array array; (* copies.(w).(d), primary first *)
  creations : (int * int) list array array;
      (* creations.(w).(d): charged copy-creation transfers (src, dst) *)
}

let n_windows t = Array.length t.copies
let n_data t = Array.length t.copies.(0)

let copies t ~window ~data =
  if window < 0 || window >= n_windows t then
    invalid_arg "Replicated.copies: window out of range";
  if data < 0 || data >= n_data t then
    invalid_arg "Replicated.copies: data out of range";
  t.copies.(window).(data)

(* Nearest member of [set] to [proc]: minimal distance, lowest rank on
   ties. Sets are tiny (<= max_copies). *)
let nearest mesh set proc =
  match set with
  | [] -> invalid_arg "Replicated.nearest: empty copy set"
  | first :: rest ->
      List.fold_left
        (fun best r ->
          let db = Pim.Mesh.distance mesh best proc
          and dr = Pim.Mesh.distance mesh r proc in
          if dr < db || (dr = db && r < best) then r else best)
        first rest

(* Nearest-copy read cost of a kind's profile, folded straight off the
   window (iteration order does not matter for a sum). *)
let kind_cost mesh set ~kind window data =
  let acc = ref 0 in
  Reftrace.Window.iter_kind_profile ~kind window data (fun ~proc ~count ->
      acc := !acc + (count * Pim.Mesh.distance mesh (nearest mesh set proc) proc));
  !acc

let schedule ?(max_copies = 2) problem =
  if max_copies < 1 then
    invalid_arg "Replicated.schedule: max_copies must be at least 1";
  (* no fault semantics: nearest-copy pricing uses raw mesh distances and
     the greedy has no alive mask *)
  if not (Pim.Fault.is_none (Problem.fault problem)) then
    invalid_arg
      "Replicated.schedule: sessions with a fault model are not supported";
  let mesh = Problem.mesh problem and trace = Problem.trace problem in
  let capacity = Problem.capacity problem in
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  let m = Pim.Mesh.size mesh in
  let windows = Array.of_list (Reftrace.Trace.windows trace) in
  (* the primary copy follows the exact GOMCDS trajectory *)
  let primary = Gomcds.schedule problem in
  let loads = Schedule.loads primary in
  let has_room w r =
    match capacity with None -> true | Some c -> loads.(w).(r) < c
  in
  let copies = Array.make_matrix n_windows n_data [] in
  let creations = Array.make_matrix n_windows n_data [] in
  List.iter
    (fun data ->
      let prev_set = ref [] in
      for w = 0 to n_windows - 1 do
        let home = Schedule.center primary ~window:w ~data in
        let set = ref [ home ] in
        let made = ref [] in
        (* write-invalidate: a written datum stays single-copy this window *)
        let written = Reftrace.Window.writes windows.(w) data > 0 in
        let profile = Reftrace.Window.read_profile windows.(w) data in
        if profile <> [] && not written then begin
          (* Snapshot the read profile into parallel arrays once per
             (window, datum): the greedy prices every candidate rank
             against it instead of re-walking the profile. *)
          let readers = Array.of_list (List.map fst profile)
          and counts = Array.of_list (List.map snd profile) in
          let np = Array.length readers in
          let dist_to r i = Pim.Mesh.distance mesh r readers.(i) in
          let base = Array.make np 0 in
          (* greedy secondary placement: best strict improvement first *)
          let continue = ref true in
          while !continue && List.length !set < max_copies do
            (* distance to the nearest current copy, once per reader per
               greedy round; a candidate's gain is then
               Σ count · max(0, base − d(candidate, reader)) — the same
               integer the old [read_cost] re-walk produced *)
            for i = 0 to np - 1 do
              base.(i) <-
                List.fold_left
                  (fun acc s -> min acc (dist_to s i))
                  max_int !set
            done;
            let sources = !set @ !prev_set in
            let best = ref None in
            for r = 0 to m - 1 do
              if (not (List.mem r !set)) && has_room w r then begin
                let creation =
                  if List.mem r !prev_set then 0
                  else Pim.Mesh.distance mesh (nearest mesh sources r) r
                in
                let gain = ref 0 in
                for i = 0 to np - 1 do
                  let d = dist_to r i in
                  if d < base.(i) then
                    gain := !gain + (counts.(i) * (base.(i) - d))
                done;
                let net = !gain - creation in
                (* first positive-net rank seeds; later ranks must strictly
                   beat it, so ties resolve to the lowest rank *)
                let better =
                  match !best with
                  | None -> net > 0
                  | Some (_, _, best_net) -> net > best_net
                in
                if better then best := Some (r, creation, net)
              end
            done;
            match !best with
            | Some (r, creation, net) when net > 0 ->
                if creation > 0 then
                  made := (nearest mesh sources r, r) :: !made;
                set := !set @ [ r ];
                loads.(w).(r) <- loads.(w).(r) + 1
            | Some _ | None -> continue := false
          done
        end;
        copies.(w).(data) <- !set;
        creations.(w).(data) <- List.rev !made;
        prev_set := !set
      done)
    (Ordering.by_total_references trace);
  { copies; creations }

type cost_breakdown = {
  reads : int;
  primary_movement : int;
  creation : int;
  total : int;
}

let primary_of t ~window ~data = List.hd t.copies.(window).(data)

let cost t mesh trace =
  let space = Reftrace.Trace.space trace in
  let volume data = Reftrace.Data_space.volume_of space data in
  let reads = ref 0 and movement = ref 0 and creation = ref 0 in
  List.iteri
    (fun w window ->
      List.iter
        (fun data ->
          reads :=
            !reads
            + volume data
              * kind_cost mesh t.copies.(w).(data) ~kind:Reftrace.Window.Read
                  window data
            + volume data
              * kind_cost mesh
                  [ primary_of t ~window:w ~data ]
                  ~kind:Reftrace.Window.Write window data)
        (Reftrace.Window.referenced_data window);
      for data = 0 to n_data t - 1 do
        if w > 0 then
          movement :=
            !movement
            + volume data
              * Pim.Mesh.distance mesh
                  (primary_of t ~window:(w - 1) ~data)
                  (primary_of t ~window:w ~data);
        List.iter
          (fun (src, dst) ->
            creation :=
              !creation + (volume data * Pim.Mesh.distance mesh src dst))
          t.creations.(w).(data)
      done)
    (Reftrace.Trace.windows trace);
  {
    reads = !reads;
    primary_movement = !movement;
    creation = !creation;
    total = !reads + !movement + !creation;
  }

let to_rounds t mesh trace =
  let space = Reftrace.Trace.space trace in
  let volume data = Reftrace.Data_space.volume_of space data in
  List.mapi
    (fun w window ->
      let migrations = ref [] in
      for data = n_data t - 1 downto 0 do
        List.iter
          (fun (src, dst) ->
            if src <> dst then
              migrations :=
                Pim.Router.message ~src ~dst ~volume:(volume data)
                :: !migrations)
          (List.rev t.creations.(w).(data));
        if w > 0 then begin
          let src = primary_of t ~window:(w - 1) ~data
          and dst = primary_of t ~window:w ~data in
          if src <> dst then
            migrations :=
              Pim.Router.message ~src ~dst ~volume:(volume data)
              :: !migrations
        end
      done;
      let references =
        List.concat_map
          (fun data ->
            let set = t.copies.(w).(data) in
            let reads =
              List.filter_map
                (fun (proc, count) ->
                  let src = nearest mesh set proc in
                  if src = proc then None
                  else
                    Some
                      (Pim.Router.message ~src ~dst:proc
                         ~volume:(count * volume data)))
                (Reftrace.Window.read_profile window data)
            in
            (* writes flow from the writer to the primary copy *)
            let home = primary_of t ~window:w ~data in
            let writes =
              List.filter_map
                (fun (proc, count) ->
                  if proc = home then None
                  else
                    Some
                      (Pim.Router.message ~src:proc ~dst:home
                         ~volume:(count * volume data)))
                (Reftrace.Window.write_profile window data)
            in
            reads @ writes)
          (Reftrace.Window.referenced_data window)
      in
      { Pim.Simulator.migrations = !migrations; references })
    (Reftrace.Trace.windows trace)

let max_live_copies t ~data =
  let mx = ref 0 in
  for w = 0 to n_windows t - 1 do
    mx := max !mx (List.length t.copies.(w).(data))
  done;
  !mx

let check_capacity t ~capacity =
  let violation = ref None in
  (try
     for w = 0 to n_windows t - 1 do
       let load = Hashtbl.create 16 in
       for d = 0 to n_data t - 1 do
         List.iter
           (fun r ->
             let c =
               match Hashtbl.find_opt load r with Some c -> c + 1 | None -> 1
             in
             Hashtbl.replace load r c;
             if c > capacity then begin
               violation := Some (w, r, c);
               raise Exit
             end)
           t.copies.(w).(d)
       done
     done
   with Exit -> ());
  !violation
