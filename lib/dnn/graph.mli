(** Layer DAGs.

    A model is a directed acyclic graph of layers stored in topological
    order: every node's predecessors have smaller ids.  This invariant is
    enforced at construction and makes cut enumeration (any prefix of the
    node array is a valid device-side subgraph) and shape inference single
    pass.

    Nodes can be flagged [exitable]: positions where model surgery may attach
    an early-exit head (the zoo flags block boundaries). *)

type node = private {
  id : int;
  node_name : string;
  layer : Layer.t;
  preds : int array;
  exitable : bool;
}

type t = private {
  uid : int;  (** process-unique id, assigned at [finish]; lets cost caches
                  key on a graph cheaply *)
  name : string;
  input_shape : Shape.t;
  nodes : node array;
  output : int;  (** id of the node producing the model's final output *)
  shapes : Shape.t array;  (** inferred output shape of every node *)
  flops : float array;  (** per-node FLOPs, computed once by [finish] *)
  params : float array;  (** per-node parameter counts *)
  cum_flops : float array;
      (** [cum_flops.(k)]: FLOPs of nodes [0, k), summed left to right;
          length [n_nodes + 1] *)
  last_use : int array;  (** highest consumer id of each node, or [-1] *)
}
(** The cost tables are filled once per graph by [Builder.finish]; read them
    through the queries below. *)

(** {1 Construction} *)

module Builder : sig
  type b

  val create : name:string -> input:Shape.t -> b * int
  (** Fresh builder plus the id of the implicit input node (always 0). *)

  val add : b -> ?name:string -> ?exitable:bool -> Layer.t -> int list -> int
  (** [add b layer preds] appends a node and returns its id.  Shape inference
      runs immediately. @raise Invalid_argument on unknown predecessor ids or
      shape errors. *)

  val shape_of : b -> int -> Shape.t
  (** Inferred output shape of an already-added node, O(1).
      @raise Invalid_argument on an unknown id. *)

  val finish : ?output:int -> b -> t
  (** Seal the graph and compute its cost tables (O(n) once, so every cost
      query below is a table read or a loop over a float array).  [output]
      defaults to the last node added.
      @raise Invalid_argument if the output id is out of range. *)
end

val sequential : name:string -> input:Shape.t -> (string option * bool * Layer.t) list -> t
(** Convenience for chain models: [(name, exitable, layer)] triples. *)

(** {1 Queries} *)

val n_nodes : t -> int
val node_shape : t -> int -> Shape.t
val node_flops : t -> int -> float
val node_params : t -> int -> float
val total_flops : t -> float
val total_params : t -> float
val output_shape : t -> Shape.t
val successors : t -> int -> int list
val exit_candidate_ids : t -> int list
(** Ids of nodes flagged exitable, in topological order. *)

val validate : t -> (unit, string) result
(** Re-checks all invariants (topological predecessor order, shape
    consistency, output id in range).  Construction guarantees them; this is
    exported for property tests and for graphs produced by transforms. *)

(** {1 Cuts}

    A cut at position [k] places nodes with id < k on the device and the
    rest on the server. [k = 0] offloads everything (the raw input is
    transferred); [k = n_nodes] runs everything on-device (nothing is
    transferred). *)

val prefix_flops : t -> int -> float
(** FLOPs of nodes [0, k), O(1). *)

val suffix_flops : t -> int -> float
(** FLOPs of nodes [k, n), summed upwards from [k], O(n − k). *)

val cut_transfer_bytes : ?bytes_per_elt:int -> t -> int -> float
(** Bytes crossing the cut: activations produced before [k] and consumed at
    or after [k] (the raw input for [k = 0]; [0.] for [k = n_nodes]), O(k). *)

(** {1 Transforms} *)

val scale_width : float -> t -> t
(** Slim the network by a channel multiplier in (0, 1]: convolution channel
    counts shrink, downstream shapes and costs are re-inferred.  The final
    classifier keeps its output dimension. @raise Invalid_argument when the
    factor is outside (0, 1] or re-inference fails. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per node: id, name, kind, shape, MFLOPs. *)
