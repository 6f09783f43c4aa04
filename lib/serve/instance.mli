(** From an instance description to the mesh, trace and capacity policy
    a solve runs on.

    The one builder behind both front ends: [pimsched serve] decodes a
    request into a {!Protocol.instance}, and the one-shot CLI subcommands
    assemble the same record from their flags, so a served answer and a
    CLI answer start from the same instance. Every instance decision
    lives here: the workload-name table (the paper's benchmarks ["1"] ..
    ["5"] plus the extension kernels, with [stencil] at 8 sweeps and
    [reduction] at one bin per processor), partition names, the paper's
    headroom-2 capacity rule ({!Sched.Problem.headroom_policy}, over the
    group's aggregate size for [arrays] instances), group construction
    with the virtual-mesh layout of generated traces, and validation of
    inline trace text. *)

type t =
  | Mesh of {
      mesh : Pim.Mesh.t;
      trace : Reftrace.Trace.t;
      policy : Sched.Problem.capacity_policy;
    }
  | Group of {
      group : Multi.Array_group.t;
      trace : Reftrace.Trace.t;  (** global ranks *)
      policy : Sched.Problem.capacity_policy;
    }

(** [build spec] is [Group] when [spec.arrays] names a group, [Mesh]
    otherwise.
    @raise Invalid_argument on an unknown workload or partition, a
    generator refusing [size], malformed or out-of-range trace text or
    a bad group spec; the message is what [serve] answers as a
    [bad-request]. *)
val build : Protocol.instance -> t

(** [workload_name s] is the canonical spelling of workload [s]
    (["transitive-closure"] is ["tc"]).
    @raise Invalid_argument on an unknown workload. *)
val workload_name : string -> string
