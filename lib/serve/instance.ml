type t =
  | Mesh of {
      mesh : Pim.Mesh.t;
      trace : Reftrace.Trace.t;
      policy : Sched.Problem.capacity_policy;
    }
  | Group of {
      group : Multi.Array_group.t;
      trace : Reftrace.Trace.t;
      policy : Sched.Problem.capacity_policy;
    }

let partition_of_name = function
  | "block-2d" -> Workloads.Iteration_space.Block_2d
  | "row-blocks" -> Workloads.Iteration_space.Row_blocks
  | "col-blocks" -> Workloads.Iteration_space.Col_blocks
  | "cyclic-2d" -> Workloads.Iteration_space.Cyclic_2d
  | s -> invalid_arg (Printf.sprintf "unknown partition %S" s)

(* The canonical name and the generator of each workload. *)
let generator = function
  | "stencil" ->
      ( "stencil",
        fun ~partition ~n mesh ->
          Workloads.Stencil.trace ~partition ~n ~sweeps:8 mesh )
  | "tc" | "transitive-closure" ->
      ( "tc",
        fun ~partition ~n mesh ->
          Workloads.Transitive_closure.trace ~partition ~n mesh )
  | "fft" ->
      ( "fft",
        fun ~partition ~n mesh ->
          Workloads.Fft_transpose.trace ~partition ~n mesh )
  | "cholesky" ->
      ( "cholesky",
        fun ~partition ~n mesh -> Workloads.Cholesky.trace ~partition ~n mesh
      )
  | "reduction" ->
      ( "reduction",
        fun ~partition ~n mesh ->
          Workloads.Reduction.trace ~partition ~n ~bins:(Pim.Mesh.size mesh)
            mesh )
  | label -> (
      match Workloads.Benchmarks.of_label label with
      | b ->
          ( Workloads.Benchmarks.label b,
            fun ~partition ~n mesh ->
              Workloads.Benchmarks.trace ~partition b ~n mesh )
      | exception Invalid_argument _ ->
          invalid_arg
            (Printf.sprintf
               "unknown workload %S (expected 1..5, stencil, tc, fft, \
                cholesky or reduction)"
               label))

let workload_name s = fst (generator s)

let generate (spec : Protocol.instance) mesh =
  let partition = partition_of_name spec.partition in
  let _, trace = generator spec.workload in
  (* a generator refusing its parameters (an fft size that is not a
     power of two, say) is the caller's mistake, not a crash *)
  match trace ~partition ~n:spec.size mesh with
  | t -> t
  | exception Invalid_argument m ->
      invalid_arg
        (Printf.sprintf "workload %S at size %d: %s" spec.workload spec.size m)

(* Ranks are checked against the target while the text is read, so an
   out-of-range rank is refused before any window row is sized by it. *)
let parse ~processors text =
  match Reftrace.Serial.of_string ~processors text with
  | t -> t
  | exception Failure m -> invalid_arg (Printf.sprintf "inline trace: %s" m)

let build (spec : Protocol.instance) =
  let policy trace processors =
    Sched.Problem.headroom_policy
      ~headroom:(if spec.unbounded then 0 else 2)
      ~processors trace
  in
  match spec.arrays with
  | None ->
      let { Protocol.rows; cols; torus } = spec.mesh in
      let mesh =
        if torus then Pim.Mesh.torus ~rows ~cols
        else Pim.Mesh.create ~rows ~cols
      in
      let trace =
        match spec.trace_text with
        | Some text -> parse ~processors:(Pim.Mesh.size mesh) text
        | None -> generate spec mesh
      in
      Mesh { mesh; trace; policy = policy trace (Pim.Mesh.size mesh) }
  | Some arrays ->
      let group =
        Multi.Array_group.of_spec ~inter_cost:spec.inter_cost
          ~torus:spec.mesh.torus arrays
      in
      let trace =
        match spec.trace_text with
        | Some text -> parse ~processors:(Multi.Array_group.size group) text
        | None ->
            (* generated workloads are laid out on the virtual mesh (the
               members tiled onto the interconnect) and remapped to global
               ranks; a 1-member group's virtual mesh is the member itself *)
            Multi.Array_group.remap_virtual_trace group
              (generate spec (Multi.Array_group.virtual_mesh group))
      in
      Group
        { group; trace; policy = policy trace (Multi.Array_group.size group) }
