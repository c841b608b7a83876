(** Tensor shapes flowing between DNN layers.

    Shapes are either feature maps (channels × height × width) or flat
    vectors; batch size is always 1 (single-request inference, the regime the
    paper targets). *)

type t =
  | Map of { c : int; h : int; w : int }  (** convolutional feature map *)
  | Vec of int  (** flattened feature vector *)

val map : c:int -> h:int -> w:int -> t
val vec : int -> t

val elements : t -> int
(** Number of scalar elements. *)

val bytes : ?bytes_per_elt:int -> t -> int
(** Size of the activation in bytes; default 4 bytes per element (fp32).
    Quantized deployments pass 1. *)

val channels : t -> int
(** Channel count of a map, or length of a vector. *)

val conv_out : t -> kernel:int -> stride:int -> pad:int -> out_c:int -> t
(** Output shape of a convolution/pool window over a map.
    @raise Invalid_argument when applied to a [Vec] or when the window does
    not fit. *)

val flatten : t -> t
(** Collapse to a vector. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
