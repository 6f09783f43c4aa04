type relaxation =
  | Axes of { cols : int; rows : int; wrap : bool }
  | Table of { dist : int array array; max_step : int }

let axes ~cols ~rows ~wrap =
  if cols <= 0 || rows <= 0 then
    invalid_arg "Layered.axes: extents must be positive";
  Axes { cols; rows; wrap }

let table dist =
  let n = Array.length dist in
  if n <= 0 then invalid_arg "Layered.table: the table must be nonempty";
  let max_step =
    Array.fold_left
      (fun acc row ->
        if Array.length row <> n then
          invalid_arg "Layered.table: the table is not square";
        Array.fold_left
          (fun acc d ->
            if d < 0 then invalid_arg "Layered.table: a negative entry";
            max acc d)
          acc row)
      0 dist
  in
  Table { dist; max_step }

type row = Full of int array | Axis_sum of int array * int array
type block = { relaxation : relaxation; rows : row array }

let entry row g =
  match row with
  | Full v -> v.(g)
  | Axis_sum (cx, cy) ->
      let cols = Array.length cx in
      cx.(g mod cols) + cy.(g / cols)

let to_array = function
  | Full v -> Array.copy v
  | Axis_sum (cx, cy) as r ->
      Array.init (Array.length cx * Array.length cy) (entry r)

(* On an axis sum the minimizers form the product (argmin cx) x
   (argmin cy), so the lowest index on each axis is the lowest
   row-major rank, as an ascending scan would find. *)
let unmasked_argmin row =
  let lowest a =
    let best = ref 0 in
    for i = 1 to Array.length a - 1 do
      if a.(i) < a.(!best) then best := i
    done;
    !best
  in
  match row with
  | Full v -> lowest v
  | Axis_sum (cx, cy) -> (lowest cy * Array.length cx) + lowest cx

(* The unmasked argmin is the lowest (cost, node) of all, so when it is
   admitted it is the answer; otherwise one ascending scan over the
   admitted nodes, strict [<] keeping the lowest node of a tie. Plain
   loops, no closure: this scan is every bounded placement's fallback. *)
let argmin ?admit row =
  let g = unmasked_argmin row in
  match admit with
  | None -> g
  | Some a when Bytes.get a g <> '\000' -> g
  | Some a ->
      let best = ref (-1) and best_cost = ref max_int in
      (match row with
      | Full v ->
          for j = 0 to Array.length v - 1 do
            if v.(j) < !best_cost && Bytes.get a j <> '\000' then begin
              best := j;
              best_cost := v.(j)
            end
          done
      | Axis_sum (cx, cy) ->
          (* a line whose cheapest node cannot beat the best is skipped *)
          let cols = Array.length cx in
          let min_cx = cx.(g mod cols) in
          for y = 0 to Array.length cy - 1 do
            let dy = cy.(y) in
            if dy + min_cx < !best_cost then
              for x = 0 to cols - 1 do
                let c = cx.(x) + dy in
                if c < !best_cost && Bytes.get a ((y * cols) + x) <> '\000'
                then begin
                  best := (y * cols) + x;
                  best_cost := c
                end
              done
          done);
      !best

(* DP work counters, reported once per solve (see DESIGN.md
   "Observability"): per layer [nodes] = sources with a finite cost and
   [edges] = relaxation steps actually taken — sweep steps for an [Axes]
   block, finite sources x block width for a [Table] block, plus one per
   node a fabric edge is offered to. Totals are per-datum and therefore
   independent of how solves are fanned out across domains. *)
let report_solve ~nodes ~edges =
  if !Obs.enabled then begin
    Obs.Metrics.incr "layered.solves";
    Obs.Metrics.add "layered.nodes_expanded" nodes;
    Obs.Metrics.add "layered.edges_relaxed" edges
  end

(* ------------------------------------------------------------------ *)
(* Packed cells                                                        *)
(* ------------------------------------------------------------------ *)

(* A cell is one int, ((cost - m) lsl bits) lor rank: [m] is the finite
   minimum of the layer's sources, [bits] the bit width of the layer's
   global ranks. Ranks fit below bit [bits], so comparing two cells as
   ints is the lexicographic (cost, source rank) compare every
   relaxation breaks ties by, and a hop of length [l] adds [l lsl bits]
   and keeps the rank.

   Range (DESIGN.md §16 "Packed cells"): let [dmax] bound every single
   step — axis diameters, [Table] entries, fabric prices. A source more
   than [dmax] above [m] can win no target (the minimum source reaches
   every target for at most [m + dmax], strictly cheaper), so it is
   stored as [inf]. Every finite cell then stays below
   (2·dmax + 1)·2^bits <= 2^61 = [inf] when dmax < 2^(60 - bits), and
   [inf] plus one more step stays below 2^62: no sum or difference of
   cells overflows. *)
let inf = 1 lsl 61

(* Branch-free minimum of two cells; both lie in [0, 2^62), so [a - b]
   cannot overflow and its sign bit selects the smaller. *)
let[@inline] pmin a b =
  let d = a - b in
  b + (d land (d asr 62))

let bits_for n =
  let b = ref 0 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

(* ------------------------------------------------------------------ *)
(* Axes: the separable relaxation                                      *)
(* ------------------------------------------------------------------ *)

(* The move cost is xd(jx,kx) + yd(jy,ky) with each term |Δ| (or the
   ring distance on a wrapping axis), so min_j cur(j) + dist(j,k) is a
   separable L1 distance transform: sweep every row forward then backward
   carrying the running best one unit per step, then every column the
   same way (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
   Functions"). O(width) per layer instead of O(width²).

   The sweeps carry packed cells, so the relaxed cell of k is the
   lexicographic minimum of (cur(j) + dist(j,k), j) over finite sources
   j — exactly what the [Table] scan computes (lowest source rank wins
   ties). Three facts make the sweeps exact: adding a constant keeps the
   lexicographic order, so a minimum of minima is the minimum of the
   union; every candidate a sweep produces is (cur(j) + L, j) for the
   length L of some walk from j, so it is never better than j's direct
   candidate; and every direct candidate is produced (on a ring the
   sweeps go round twice less one cell, so each source reaches each
   target the short way). DESIGN.md §16 has the argument in full. *)

(* Whether a wrapping axis of extent [n] is swept as a ring: on extents
   <= 2 the ring distance is |a - b|, so such an axis is a line. *)
let ring ~n ~wrap = wrap && n > 2

(* Cells visited by one directed sweep along a line of [n]: a line once,
   a ring round twice less one cell. *)
let sweep_cells ~n ~wrap = if ring ~n ~wrap then (2 * n) - 1 else n

(* Longest distance along a line or ring of extent [n]. *)
let diameter ~n ~wrap = if wrap then n / 2 else n - 1

(* One sweep step on every line of an axis at once: on each of the
   [lines] lines (each [ls] cells after the last) the cell at [dst]
   takes the minimum of itself and the cell at [src] plus one hop. The
   lines are independent, so consecutive minima never wait on each
   other, and each cell sees the same minima as in a one-line walk. *)
let step c ~hop ~lines ~ls ~src ~dst =
  let off = src - dst and last = dst + ((lines - 1) * ls) in
  let p = ref dst in
  while !p <= last do
    let q = !p in
    c.(q) <- pmin c.(q) (c.(q + off) + hop);
    p := q + ls
  done

(* Two consecutive steps of every line, [src] to [mid] to [dst]: the
   middle cell's new value feeds the second minimum from a register. *)
let step2 c ~hop ~lines ~ls ~src ~mid ~dst =
  let o1 = src - mid and o2 = dst - mid and last = mid + ((lines - 1) * ls) in
  let p = ref mid in
  while !p <= last do
    let q = !p in
    let x = pmin c.(q) (c.(q + o1) + hop) in
    c.(q) <- x;
    c.(q + o2) <- pmin c.(q + o2) (x + hop);
    p := q + ls
  done

(* Forward then backward sweep of one axis of extent [n] (cells
   [stride] apart) over all [lines] lines of a block at [base]. A
   directed walk visits [sweep_cells] positions, each step updating the
   next position from the current one (on a ring round twice less one
   cell), two steps at a time. *)
let sweep_axis c ~hop ~base ~n ~wrap ~stride ~lines ~ls =
  let at p = base + (p * stride) in
  let walk next start =
    let p = ref start and left = ref (sweep_cells ~n ~wrap - 1) in
    while !left >= 2 do
      let q = next !p in
      let r = next q in
      step2 c ~hop ~lines ~ls ~src:(at !p) ~mid:(at q) ~dst:(at r);
      p := r;
      left := !left - 2
    done;
    if !left = 1 then step c ~hop ~lines ~ls ~src:(at !p) ~dst:(at (next !p))
  in
  walk (fun p -> if p = n - 1 then 0 else p + 1) 0;
  walk (fun p -> if p = 0 then n - 1 else p - 1) (n - 1)

(* ------------------------------------------------------------------ *)
(* The forward DP                                                      *)
(* ------------------------------------------------------------------ *)

let width_of = function
  | Axes { cols; rows; _ } -> cols * rows
  | Table { dist; _ } -> Array.length dist

(* Longest single step of a relaxation. *)
let max_step = function
  | Axes { cols; rows; wrap } -> diameter ~n:cols ~wrap + diameter ~n:rows ~wrap
  | Table { max_step; _ } -> max_step

(* The relaxation was checked when it was made; a solve checks only that
   the block's first [n_layers] rows fit it. *)
let check_rows ~n_layers b =
  if Array.length b.rows < n_layers then
    invalid_arg "Layered: fewer rows than n_layers";
  for l = 0 to n_layers - 1 do
    match (b.rows.(l), b.relaxation) with
    | Full v, r ->
        if Array.length v <> width_of r then
          invalid_arg "Layered: a row's length differs from the block width"
    | Axis_sum (cx, cy), Axes { cols; rows; _ } ->
        if Array.length cx <> cols || Array.length cy <> rows then
          invalid_arg "Layered: an axis-sum row does not match the block's axes"
    | Axis_sum _, Table _ ->
        invalid_arg "Layered: an axis-sum row on a Table block"
  done

(* Relaxation steps a block performs on a layer with [finite] finite
   sources — the [layered.edges_relaxed] unit: the sweep steps of an
   [Axes] block (none when no source is finite), sources x width for a
   [Table] block. *)
let relax_steps r ~finite =
  match r with
  | Axes { cols; rows; wrap } ->
      if finite = 0 then 0
      else
        (rows * 2 * (sweep_cells ~n:cols ~wrap - 1))
        + (cols * 2 * (sweep_cells ~n:rows ~wrap - 1))
  | Table { dist; _ } -> finite * Array.length dist

(* Per-domain solve buffers: a solve allocates only the centers it
   returns and a few words per block. [cell] holds the packed cells
   (a layer's absolute costs between the two finalize passes), [tmp] a
   [Table] block's relaxed cells, [ones] the admit-everything
   row. [choice] is flat, layer [l]'s predecessors at
   [l·width .. l·width + width - 1]; entries are read back only along
   the finite witness path, and each of those was written by the same
   solve, so buffers are never cleared. A solve larger than
   [max_kept_words] gets buffers of its own, left to the GC, so one
   outsized request does not pin its buffers in every domain for the
   life of the process. *)
type scratch = {
  mutable cell : int array;
  mutable tmp : int array;
  mutable ones : Bytes.t;
  mutable choice : int array;
}

let max_kept_words = 1 lsl 20

let fresh_scratch ~width ~n_layers =
  {
    cell = Array.make width inf;
    tmp = Array.make width inf;
    ones = Bytes.make width '\001';
    choice = Array.make (width * n_layers) 0;
  }

let scratch_key =
  Domain.DLS.new_key (fun () -> fresh_scratch ~width:0 ~n_layers:0)

let scratch ~width ~n_layers =
  if width * n_layers > max_kept_words then fresh_scratch ~width ~n_layers
  else begin
    let sc = Domain.DLS.get scratch_key in
    if Array.length sc.cell < width then begin
      sc.cell <- Array.make width inf;
      sc.tmp <- Array.make width inf;
      sc.ones <- Bytes.make width '\001'
    end;
    if Array.length sc.choice < width * n_layers then
      sc.choice <- Array.make (width * n_layers) 0;
    sc
  end

(* Relax block [r] at global base [b] in place. [Axes] runs the
   interleaved sweeps, x then y; [Table] is the ascending full-table
   scan, sources outer, into [tmp] and back. *)
let relax_block sc r ~b ~bits =
  let c = sc.cell in
  match r with
  | Axes { cols; rows; wrap } ->
      let hop = 1 lsl bits in
      sweep_axis c ~hop ~base:b ~n:cols ~wrap ~stride:1 ~lines:rows ~ls:cols;
      sweep_axis c ~hop ~base:b ~n:rows ~wrap ~stride:cols ~lines:cols ~ls:1
  | Table { dist = t; _ } ->
      let w = Array.length t and tmp = sc.tmp in
      Array.fill tmp 0 w inf;
      for j = 0 to w - 1 do
        let s = c.(b + j) in
        if s < inf then begin
          let row = t.(j) in
          for k = 0 to w - 1 do
            tmp.(k) <- pmin tmp.(k) (s + (row.(k) lsl bits))
          done
        end
      done;
      Array.blit tmp 0 c b w

(* Finalize one cell [g]: record its predecessor (its rank bits) in
   [choice] at [cb], then replace it by its absolute cost — unpacked
   cost plus [add] (layer minimum, const and row entry) — when it is
   finite and [admit] admits it, by [max_int] otherwise. Returns the
   lesser of [lo] and the new cost. *)
let[@inline] settle_cell cell choice ~cb ~admit ~bits g ~add lo =
  let c = cell.(g) in
  choice.(cb + g) <- c land ((1 lsl bits) - 1);
  if c < inf && Bytes.get admit g <> '\000' then begin
    let v = (c lsr bits) + add in
    cell.(g) <- v;
    if v < lo then v else lo
  end
  else begin
    cell.(g) <- max_int;
    lo
  end

(* Finalize pass 1 over the cells [b, e) of one block, adding [base]
   and the block's layer row: [v.(g - b)] for a full row,
   [cx.(x) + cy.(y)] at each target of an axis sum. Returns the least
   new cost. *)
let settle cell choice ~cb ~admit ~row ~base ~bits ~b ~e =
  let lo = ref max_int in
  (match row with
  | Full v ->
      for g = b to e - 1 do
        lo :=
          settle_cell cell choice ~cb ~admit ~bits g
            ~add:(base + v.(g - b)) !lo
      done
  | Axis_sum (cx, cy) ->
      let cols = Array.length cx in
      for y = 0 to Array.length cy - 1 do
        let by = base + cy.(y) and r = b + (y * cols) in
        for x = 0 to cols - 1 do
          lo :=
            settle_cell cell choice ~cb ~admit ~bits (r + x)
              ~add:(by + cx.(x)) !lo
        done
      done);
  !lo

(* Finalize pass 2: repack the absolute costs of the cells [b, e)
   against the layer minimum [lo]; a cost more than [dmax] above it can
   win no target and becomes [inf]. Returns the number of finite costs,
   far ones included. *)
let repack cell ~lo ~dmax ~bits ~b ~e =
  let f = ref 0 in
  for g = b to e - 1 do
    let v = cell.(g) in
    if v = max_int then cell.(g) <- inf
    else begin
      incr f;
      cell.(g) <- (if v - lo > dmax then inf else ((v - lo) lsl bits) lor g)
    end
  done;
  !f

(* Apply one fabric candidate [cv] to the cells [b, e) with a strict [<]
   on cost alone: [cv] with every rank bit set loses every cost tie. *)
let offer cell ~cv ~mask ~b ~e =
  let beat = cv lor mask in
  for g = b to e - 1 do
    if beat < cell.(g) then cell.(g) <- cv
  done

(* Lexicographic minimum of the cells [b, e). *)
let cell_min cell ~b ~e =
  let mv = ref inf in
  for g = b to e - 1 do
    mv := pmin !mv cell.(g)
  done;
  !mv

(* ------------------------------------------------------------------ *)
(* The separable solve                                                 *)
(* ------------------------------------------------------------------ *)

(* On one [Axes] block whose rows are all axis sums, a trajectory's cost
   is an x trajectory's plus a y trajectory's: Σ cx_l(x_l) plus the |Δx|
   hops, and the same in y. So the DP splits into one 1-D DP per axis,
   O(W·(cols + rows)) instead of O(W·cols·rows). Each keeps the
   lowest index on ties; the 2-D minimizers of every predecessor and of
   the final step are the product of the per-axis ones, whose lowest
   row-major rank y·cols + x is the lowest y with the lowest x, so the
   per-axis centers are the 2-D DP's (DESIGN.md §16 "Separable
   solves"). *)

(* [costs.(l)] per axis of the first [n_layers] rows, or [None] when one
   of them is [Full]. *)
let split_rows ~n_layers rows =
  let xs = Array.make n_layers [||] and ys = Array.make n_layers [||] in
  let rec split l =
    l = n_layers
    ||
    match rows.(l) with
    | Axis_sum (cx, cy) ->
        xs.(l) <- cx;
        ys.(l) <- cy;
        split (l + 1)
    | Full _ -> false
  in
  if split 0 then Some (xs, ys) else None

(* Both walks of {!sweep_axis} along a single line of [n] cells, the
   running best carried in a register: the same steps in the same
   order. *)
let sweep_line c ~hop ~n ~wrap =
  let wrap = ring ~n ~wrap and last = n - 1 in
  let run = ref c.(0) in
  for g = 1 to last do
    run := pmin c.(g) (!run + hop);
    c.(g) <- !run
  done;
  if wrap then
    for g = 0 to last - 1 do
      run := pmin c.(g) (!run + hop);
      c.(g) <- !run
    done;
  run := c.(last);
  for g = last - 1 downto 0 do
    run := pmin c.(g) (!run + hop);
    c.(g) <- !run
  done;
  if wrap then
    for g = last downto 1 do
      run := pmin c.(g) (!run + hop);
      c.(g) <- !run
    done

(* The 1-D DP of one axis of extent [n], layer [l] priced by
   [costs.(l)]: the forward DP below on a single line with no admit
   row — the same packed cells, tie rule and two finalize passes. Every
   relaxed cell is finite (the minimum source reaches every cell), and
   the cells pack, since the 2-D solve's range check covers one axis.
   Returns the least cost and its centers. *)
let axis_dp ~n_layers ~n ~wrap costs =
  let bits = bits_for n and dmax = diameter ~n ~wrap in
  let hop = 1 lsl bits in
  let sc = scratch ~width:n ~n_layers in
  let cell = sc.cell and choice = sc.choice in
  (* pass 1: record each predecessor, add the previous minimum [m] and
     the layer's costs; returns the new minimum *)
  let settle l m =
    let row = costs.(l) and cb = l * n and lo = ref max_int in
    for g = 0 to n - 1 do
      let c = cell.(g) in
      choice.(cb + g) <- c land (hop - 1);
      let v = (c lsr bits) + m + row.(g) in
      cell.(g) <- v;
      if v < !lo then lo := v
    done;
    !lo
  in
  for g = 0 to n - 1 do
    cell.(g) <- g
  done;
  let m = ref (settle 0 0) in
  for l = 1 to n_layers - 1 do
    (* pass 2, then relax *)
    for g = 0 to n - 1 do
      let v = cell.(g) - !m in
      cell.(g) <- (if v > dmax then inf else (v lsl bits) lor g)
    done;
    sweep_line cell ~hop ~n ~wrap;
    m := settle l !m
  done;
  let best = ref 0 in
  for g = 1 to n - 1 do
    if cell.(g) < cell.(!best) then best := g
  done;
  let centers = Array.make n_layers !best in
  for l = n_layers - 1 downto 1 do
    centers.(l - 1) <- choice.((l * n) + centers.(l))
  done;
  (cell.(!best), centers)

let checked_row f ~total layer =
  let row = f layer in
  if Bytes.length row < total then
    invalid_arg "Layered: admit row shorter than the layer";
  row

(* Whether every layer admits its center. Layer [l]'s row is read
   before layer [l + 1]'s is asked for, and the walk stops at the first
   center not admitted. *)
let admits ~total admit centers =
  match admit with
  | None -> true
  | Some f ->
      let rec from l =
        l = Array.length centers
        || Bytes.get (checked_row f ~total l) centers.(l) <> '\000'
           && from (l + 1)
      in
      from 0

(* The per-axis answer when every layer admits it, else [None]. Admit
   rows only remove cells, so an admitted unbounded optimum is the
   bounded DP's answer, witness included (DESIGN.md §16). A single
   block's const is the same at every node of a layer, so it only adds
   to the cost. *)
let separable ?admit ?consts ~n_layers ~cols ~rows ~wrap (xs, ys) =
  let cost_x, cx = axis_dp ~n_layers ~n:cols ~wrap xs in
  let cost_y, cy = axis_dp ~n_layers ~n:rows ~wrap ys in
  let centers = Array.init n_layers (fun l -> (cy.(l) * cols) + cx.(l)) in
  if !Obs.enabled then Obs.Metrics.incr "layered.separable_solves";
  if not (admits ~total:(cols * rows) admit centers) then None
  else begin
    if !Obs.enabled then Obs.Metrics.incr "layered.separable_answers";
    let cost = ref (cost_x + cost_y) in
    Option.iter
      (fun f ->
        for layer = 0 to n_layers - 1 do
          cost := !cost + f ~layer ~member:0
        done)
      consts;
    Some (!cost, centers)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* The forward DP. Each layer is the concatenation of the blocks (global
   node = block base + local index). A layer relaxes every block on its
   own relaxation; with several blocks the flat fabric then offers each
   block one scalar edge per source block — that block's entry minimum
   (lowest global rank on ties) plus [move_cost] — applied after the
   intra-block pass with a strict [<] on cost, sources ascending, so
   staying inside a block wins every tie. A single block runs no fabric
   pass at all. Each layer then finalizes in two passes: add the layer
   row and const to every admitted finite cell and record its
   predecessor, then repack against the new minimum. Layer 0 starts
   from cells [g] (every node its own source at cost 0).

   After every check, and inside the solve's span, a single [Axes] block
   whose rows are all axis sums is first solved per axis; the forward DP
   runs only when that answer is not admitted. *)
let solve ?admit ?move_cost ?consts ~n_layers blocks =
  let nb = Array.length blocks in
  if nb = 0 then invalid_arg "Layered: blocks must be nonempty";
  if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  Array.iter (check_rows ~n_layers) blocks;
  let rs = Array.map (fun b -> b.relaxation) blocks in
  let fabric =
    match move_cost with
    | Some f ->
        Array.init (nb * nb) (fun k ->
            let src = k / nb and dst = k mod nb in
            if src = dst then 0
            else begin
              let c = f src dst in
              if c < 0 then invalid_arg "Layered: negative move_cost";
              c
            end)
    | None ->
        if nb > 1 then invalid_arg "Layered: several blocks need ~move_cost";
        [| 0 |]
  in
  let bases = Array.make (nb + 1) 0 in
  for i = 0 to nb - 1 do
    bases.(i + 1) <- bases.(i) + width_of rs.(i)
  done;
  let total = bases.(nb) in
  let bits = bits_for total in
  let dmax =
    Array.fold_left max (Array.fold_left max 0 fabric) (Array.map max_step rs)
  in
  if bits > 60 || dmax >= 1 lsl (60 - bits) then
    invalid_arg
      (Printf.sprintf
         "Layered: a step of %d does not pack beside %d-bit ranks (limit 2^%d)"
         dmax bits (60 - bits));
  let const ~layer i =
    match consts with None -> 0 | Some f -> f ~layer ~member:i
  in
  Obs.Span.with_
    ~name:(if nb = 1 then "layered.solve" else "layered.solve_group")
  @@ fun () ->
  match
    match rs with
    | [| Axes { cols; rows; wrap } |] ->
        Option.bind
          (split_rows ~n_layers blocks.(0).rows)
          (separable ?admit ?consts ~n_layers ~cols ~rows ~wrap)
    | _ -> None
  with
  | Some _ as answer -> answer
  | None ->
      let sc = scratch ~width:total ~n_layers in
      let cell = sc.cell and choice = sc.choice in
      let mask = (1 lsl bits) - 1 in
      let admit_row layer =
        match admit with
        | None -> sc.ones
        | Some f -> checked_row f ~total layer
      in
      (* [fin.(i)]: finite sources of block i in the current layer, counted
         before the far ones are set to [inf]; [m]: the layer minimum *)
      let fin = Array.make nb 0 and minv = Array.make nb inf in
      let m = ref 0 in
      (* Finalize [layer] from its relaxed cells; [false] when it is empty. *)
      let finalize layer =
        let admit = admit_row layer in
        let lo = ref max_int in
        for i = 0 to nb - 1 do
          lo :=
            min !lo
              (settle cell choice ~cb:(layer * total) ~admit
                 ~row:blocks.(i).rows.(layer)
                 ~base:(!m + const ~layer i)
                 ~bits ~b:bases.(i) ~e:bases.(i + 1))
        done;
        let lo = !lo in
        m := lo;
        for i = 0 to nb - 1 do
          fin.(i) <-
            repack cell ~lo ~dmax ~bits
              ~b:bases.(i) ~e:bases.(i + 1)
        done;
        lo <> max_int
      in
      for g = 0 to total - 1 do
        cell.(g) <- g
      done;
      let nodes = ref 0 and steps = ref 0 in
      let live = ref (finalize 0) and layer = ref 1 in
      while !live && !layer < n_layers do
        if nb > 1 then
          (* per-block entry minima over the previous layer: the single
             source every outgoing fabric edge of that block reroots at *)
          for i = 0 to nb - 1 do
            minv.(i) <- cell_min cell ~b:bases.(i) ~e:bases.(i + 1)
          done;
        for i = 0 to nb - 1 do
          let finite = fin.(i) in
          nodes := !nodes + finite;
          steps := !steps + relax_steps rs.(i) ~finite;
          if finite > 0 then relax_block sc rs.(i) ~b:bases.(i) ~bits
        done;
        if nb > 1 then
          for i = 0 to nb - 1 do
            let cv = ref inf and offered = ref false in
            for src = 0 to nb - 1 do
              if src <> i then begin
                if fin.(src) > 0 then offered := true;
                cv := pmin !cv (minv.(src) + (fabric.((src * nb) + i) lsl bits))
              end
            done;
            if !offered then steps := !steps + bases.(i + 1) - bases.(i);
            if !cv < inf then
              offer cell ~cv:!cv ~mask ~b:bases.(i) ~e:bases.(i + 1)
          done;
        live := finalize !layer;
        incr layer
      done;
      report_solve ~nodes:!nodes ~edges:!steps;
      if not !live then None
      else begin
        (* lowest final cost, lowest rank on ties; then walk the
           predecessors back from the last layer *)
        let best = cell_min cell ~b:0 ~e:total in
        let centers = Array.make n_layers (-1) in
        centers.(n_layers - 1) <- best land mask;
        for layer = n_layers - 1 downto 1 do
          centers.(layer - 1) <- choice.((layer * total) + centers.(layer))
        done;
        Some (!m + (best lsr bits), centers)
      end
