type event = { window : int; fault : Pim.Fault.t }

type report = {
  algorithm : Scheduler.algorithm;
  reschedule : bool;
  planned_cost : int;
  reference_cost : int;
  movement_cost : int;
  paid_cost : int;
  evicted : int;
  evicted_cost : int;
  reroute_hops : int;
  remapped_refs : int;
  undeliverable : int;
  reschedules : int;
}

let hit name n = if !Obs.enabled then Obs.Metrics.add name n

(* Nearest alive rank by (healthy grid distance, rank) — routers outlive
   compute, so grid closeness is the right repair metric even when the
   rank itself is dead. *)
let repair_map mesh fault =
  let size = Pim.Mesh.size mesh in
  let alive = Array.make size true in
  List.iter (fun r -> alive.(r) <- false) (Pim.Fault.dead_nodes fault);
  Array.init size (fun r ->
      if alive.(r) then r
      else begin
        let best = ref (-1) in
        for c = 0 to size - 1 do
          if alive.(c) then
            match !best with
            | -1 -> best := c
            | b ->
                let db = Pim.Mesh.distance mesh r b
                and dc = Pim.Mesh.distance mesh r c in
                if dc < db then best := c
        done;
        !best
      end)

(* Price datum [d]'s continuation [first..n-1] of [plan] from [from_pos]
   on the degraded array — the exact accounting the executor below
   charges, with unreachable messages priced at the sentinel so
   trajectories that strand data lose the comparison. The continuation
   price is separable across data (no cross-datum terms), so
   adopt-vs-keep can be decided per datum. *)
let price_datum problem ~paths ~repair ~windows ~volume ~plan ~from_pos
    ~first d =
  let n_windows = Schedule.n_windows plan in
  let dist src dst =
    match paths with
    | None -> Problem.distance problem src dst
    | Some o -> (
        match Pim.Fault.Paths.distance o ~src ~dst with
        | Some dd -> dd
        | None -> Problem.unreachable_cost)
  in
  let total = ref 0 in
  (* before the very first window data have no position: placement free *)
  let pos = ref (Option.map (fun p -> p.(d)) from_pos) in
  for w = first to n_windows - 1 do
    let c = Schedule.center plan ~window:w ~data:d in
    (match !pos with
    | Some p when p <> c -> total := !total + (volume.(d) * dist p c)
    | Some _ | None -> ());
    pos := Some c;
    List.iter
      (fun (proc, count) ->
        let proc = repair.(proc) in
        if proc <> c then total := !total + (volume.(d) * count * dist c proc))
      (Reftrace.Window.profile windows.(w) d)
  done;
  !total

let run ?(reschedule = true) ?(events = []) problem algorithm =
  Obs.Span.with_ ~name:"resilience.run" @@ fun () ->
  let mesh = Problem.mesh problem in
  let trace = Problem.trace problem in
  let n_windows = Problem.n_windows problem in
  let n_data = Problem.n_data problem in
  let space = Problem.space problem in
  let volume = Array.init n_data (Reftrace.Data_space.volume_of space) in
  let windows = Array.of_list (Reftrace.Trace.windows trace) in
  List.iter
    (fun { window; fault } ->
      if window < 0 || window >= n_windows then
        invalid_arg
          (Printf.sprintf "Resilience.run: event window %d out of [0, %d)"
             window n_windows);
      Pim.Fault.validate fault mesh)
    events;
  (* the plan being executed, repaired and merged in place *)
  let plan = Scheduler.solve problem algorithm in
  let planned_cost = Schedule.total_cost plan trace in
  let center w d = Schedule.center plan ~window:w ~data:d in
  let set_center w d c = Schedule.set_center plan ~window:w ~data:d c in
  (* mutable execution state *)
  let cur_fault = ref (Problem.fault problem) in
  let cur_problem = ref problem in
  let paths = ref None in
  let repair = ref (Array.init (Pim.Mesh.size mesh) Fun.id) in
  let pos = ref None in
  let reference_cost = ref 0
  and movement_cost = ref 0
  and evicted = ref 0
  and evicted_cost = ref 0
  and reroute_hops = ref 0
  and remapped_refs = ref 0
  and undeliverable = ref 0
  and reschedules = ref 0 in
  let healthy_dist = Pim.Mesh.distance mesh in
  let fault_dist src dst =
    match !paths with
    | None -> Some (healthy_dist src dst)
    | Some o -> Pim.Fault.Paths.distance o ~src ~dst
  in
  for w = 0 to n_windows - 1 do
    (* 1. activate this window's failures *)
    let arrived =
      List.filter_map
        (fun e -> if e.window = w then Some e.fault else None)
        events
    in
    if arrived <> [] then begin
      let f = List.fold_left Pim.Fault.union !cur_fault arrived in
      cur_fault := f;
      (* patch the running session instead of opening a cold one: faults
         only accumulate here, so only rows the new fault actually
         repriced are rebuilt — a pure node-fault event reuses every
         cost row of the previous session *)
      cur_problem := Problem.with_fault_patch !cur_problem f;
      paths :=
        (if Pim.Fault.is_none f then None
         else Some (Pim.Fault.Paths.create mesh f));
      repair := repair_map mesh f;
      (* 2. evict data physically sitting on freshly dead ranks *)
      (match !pos with
      | None -> ()
      | Some pos ->
          for d = 0 to n_data - 1 do
            let p = pos.(d) in
            if not (Pim.Fault.node_dead f p) then ()
            else begin
              let dst = !repair.(p) in
              let c =
                match fault_dist p dst with
                | Some dist -> volume.(d) * dist
                | None -> 0 (* memory lost with its partition *)
              in
              incr evicted;
              evicted_cost := !evicted_cost + c;
              movement_cost := !movement_cost + c;
              pos.(d) <- dst
            end
          done);
      (* 3. repair the remaining plan: no planned center may be dead *)
      for w' = w to n_windows - 1 do
        for d = 0 to n_data - 1 do
          set_center w' d !repair.(center w' d)
        done
      done;
      (* 4. reschedule-on-failure: re-solve the degraded problem, then
         merge per datum — each datum keeps whichever continuation
         (re-solved or repaired) prices cheaper. The price is separable
         across data, so the merge is never worse than riding out the
         repaired plan and wins whenever the re-solve improves any single
         datum. *)
      if reschedule then begin
        let candidate = Scheduler.solve !cur_problem algorithm in
        let price p d =
          price_datum !cur_problem ~paths:!paths ~repair:!repair ~windows
            ~volume ~plan:p ~from_pos:!pos ~first:w d
        in
        let adopted = ref 0 in
        for d = 0 to n_data - 1 do
          if price candidate d < price plan d then begin
            incr adopted;
            for w' = w to n_windows - 1 do
              set_center w' d (Schedule.center candidate ~window:w' ~data:d)
            done
          end
        done;
        if !adopted > 0 then incr reschedules
      end
    end;
    (* 5. migrate into this window's centers (initial placement is free) *)
    (match !pos with
    | None -> pos := Some (Array.init n_data (center w))
    | Some pos ->
        for d = 0 to n_data - 1 do
          let src = pos.(d) and dst = center w d in
          if src <> dst then begin
            match fault_dist src dst with
            | Some dist ->
                movement_cost := !movement_cost + (volume.(d) * dist);
                reroute_hops := !reroute_hops + (dist - healthy_dist src dst);
                pos.(d) <- dst
            | None -> incr undeliverable (* stranded: datum stays put *)
          end
        done);
    let pos = Option.get !pos in
    (* 6. serve this window's references from wherever data actually are *)
    List.iter
      (fun d ->
        let c = pos.(d) in
        List.iter
          (fun (proc, count) ->
            let dst = !repair.(proc) in
            if dst <> proc then remapped_refs := !remapped_refs + count;
            if dst <> c then begin
              match fault_dist c dst with
              | Some dist ->
                  reference_cost :=
                    !reference_cost + (volume.(d) * count * dist);
                  reroute_hops :=
                    !reroute_hops + (count * (dist - healthy_dist c dst))
              | None -> undeliverable := !undeliverable + count
            end)
          (Reftrace.Window.profile windows.(w) d))
      (Reftrace.Window.referenced_data windows.(w))
  done;
  hit "resilience.evictions" !evicted;
  hit "resilience.reschedules" !reschedules;
  hit "resilience.undeliverable" !undeliverable;
  hit "resilience.reroute_hops" !reroute_hops;
  {
    algorithm;
    reschedule;
    planned_cost;
    reference_cost = !reference_cost;
    movement_cost = !movement_cost;
    paid_cost = !reference_cost + !movement_cost;
    evicted = !evicted;
    evicted_cost = !evicted_cost;
    reroute_hops = !reroute_hops;
    remapped_refs = !remapped_refs;
    undeliverable = !undeliverable;
    reschedules = !reschedules;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "resilience(%s%s: planned=%d paid=%d (ref=%d, move=%d) evicted=%d/%d \
     reroute=%d remapped=%d undeliverable=%d reschedules=%d)"
    (Scheduler.name r.algorithm)
    (if r.reschedule then "" else ", no-reschedule")
    r.planned_cost r.paid_cost r.reference_cost r.movement_cost r.evicted
    r.evicted_cost r.reroute_hops r.remapped_refs r.undeliverable
    r.reschedules
