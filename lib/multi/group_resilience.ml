type event = { window : int; fault : Group_fault.t }

type report = {
  algorithm : Sched.Scheduler.algorithm;
  reschedule : bool;
  planned_cost : int;
  paid_cost : int;
  evicted : int;
  evicted_cost : int;
  reschedules : int;
}

let run ?(reschedule = true) ?(events = []) gp algorithm =
  Obs.Span.with_ ~name:"multi.resilience" @@ fun () ->
  let group = Group_problem.group gp in
  let trace = Group_problem.trace gp in
  let space = Reftrace.Trace.space trace in
  let nw = Group_problem.n_windows gp in
  let nd = Group_problem.n_data gp in
  let vol d = Reftrace.Data_space.volume_of space d in
  let gdist = Array_group.distance group in
  (* union the events per window, validated up front *)
  let at = Array.make nw None in
  List.iter
    (fun ev ->
      if ev.window < 0 || ev.window >= nw then
        invalid_arg
          (Printf.sprintf "Group_resilience: event window %d out of range"
             ev.window);
      at.(ev.window) <-
        Some
          (match at.(ev.window) with
          | None -> ev.fault
          | Some f -> Group_fault.union f ev.fault))
    events;
  let plan = Group_solver.solve gp algorithm in
  let planned_cost = (Group_schedule.cost plan trace).total in
  (* the plan being executed, repaired and re-solved in place *)
  let active = Sched.Schedule.copy plan in
  let center = Sched.Schedule.center active in
  (* current problem under the accumulated fault: repair pricing reads
     its member cost rows, so evolving link faults stay priced right *)
  let cur_gp = ref gp in
  let prev = Array.init nd (fun d -> center ~window:0 ~data:d) in
  let paid = ref 0 in
  let evicted = ref 0 and evicted_cost = ref 0 and reschedules = ref 0 in
  let alive g = Group_problem.rank_alive !cur_gp g in
  (* cheapest surviving global center for (d, w): member cross constant
     + the member's cost row, lowest global rank on ties *)
  let repair_center d w =
    let best = ref (-1) and best_cost = ref max_int in
    List.iter
      (fun m ->
        let sub = Group_problem.sub !cur_gp m in
        let cross = Group_problem.cross_cost !cur_gp ~window:w ~data:d ~member:m in
        let b = Array_group.base group m in
        let msz = Pim.Mesh.size (Array_group.member group m) in
        for r = 0 to msz - 1 do
          if alive (b + r) then begin
            let c = cross + Sched.Problem.cost_entry sub ~window:w ~data:d r in
            if c < !best_cost then begin
              best_cost := c;
              best := b + r
            end
          end
        done)
      (Group_problem.alive_members !cur_gp);
    assert (!best >= 0);
    !best
  in
  (* price a continuation for one datum from its current position: entry
     move + suffix references + suffix movement, the exact charges the
     execution loop below applies *)
  let price_continuation d ~from_window centers =
    let v = vol d in
    let total = ref 0 in
    if centers.(0) <> prev.(d) then
      total := !total + (v * gdist prev.(d) centers.(0));
    for i = 0 to Array.length centers - 1 do
      let w = from_window + i in
      let win = Reftrace.Trace.window trace w in
      Reftrace.Window.iter_profile win d (fun ~proc ~count ->
          total := !total + (v * count * gdist proc centers.(i)));
      if i > 0 && centers.(i) <> centers.(i - 1) then
        total := !total + (v * gdist centers.(i - 1) centers.(i))
    done;
    !total
  in
  for w = 0 to nw - 1 do
    (match at.(w) with
    | None -> ()
    | Some ev_fault ->
        if !Obs.enabled then Obs.Metrics.incr "multi.resilience_events";
        let merged = Group_fault.union (Group_problem.fault !cur_gp) ev_fault in
        cur_gp := Group_problem.with_fault !cur_gp merged;
        (* repair: remap every dead center of the remaining plan *)
        for w' = w to nw - 1 do
          for d = 0 to nd - 1 do
            if not (alive (center ~window:w' ~data:d)) then
              Sched.Schedule.set_center active ~window:w' ~data:d
                (repair_center d w')
          done
        done;
        if reschedule then begin
          let suffix_windows =
            List.filteri
              (fun i _ -> i >= w)
              (Reftrace.Trace.windows trace)
          in
          let suffix_trace = Reftrace.Trace.create space suffix_windows in
          let cont_gp =
            Group_problem.create
              ~policy:(Group_problem.policy gp)
              ~jobs:(Group_problem.jobs gp)
              ~fault:merged group suffix_trace
          in
          let resolved_plan = Group_solver.solve cont_gp algorithm in
          let improved = ref false in
          for d = 0 to nd - 1 do
            let rep =
              Array.sub (Sched.Schedule.centers_of_data active ~data:d) w
                (nw - w)
            in
            let res = Sched.Schedule.centers_of_data resolved_plan ~data:d in
            if
              price_continuation d ~from_window:w res
              < price_continuation d ~from_window:w rep
            then begin
              improved := true;
              Array.iteri
                (fun i c ->
                  Sched.Schedule.set_center active ~window:(w + i) ~data:d c)
                res
            end
          done;
          if !improved then incr reschedules
        end;
        (* eviction accounting: data sitting on a rank the event killed *)
        for d = 0 to nd - 1 do
          if not (alive prev.(d)) then begin
            incr evicted;
            evicted_cost :=
              !evicted_cost
              + (vol d * gdist prev.(d) (center ~window:w ~data:d));
            if !Obs.enabled then Obs.Metrics.incr "multi.resilience_evictions"
          end
        done);
    let win = Reftrace.Trace.window trace w in
    for d = 0 to nd - 1 do
      let c = center ~window:w ~data:d in
      if c <> prev.(d) then paid := !paid + (vol d * gdist prev.(d) c);
      Reftrace.Window.iter_profile win d (fun ~proc ~count ->
          paid := !paid + (vol d * count * gdist proc c));
      prev.(d) <- c
    done
  done;
  {
    algorithm;
    reschedule;
    planned_cost;
    paid_cost = !paid;
    evicted = !evicted;
    evicted_cost = !evicted_cost;
    reschedules = !reschedules;
  }
