type t = Map of { c : int; h : int; w : int } | Vec of int

let map ~c ~h ~w =
  if c <= 0 || h <= 0 || w <= 0 then invalid_arg "Shape.map: non-positive dimension";
  Map { c; h; w }

let vec n =
  if n <= 0 then invalid_arg "Shape.vec: non-positive length";
  Vec n

let elements = function Map { c; h; w } -> c * h * w | Vec n -> n

let bytes ?(bytes_per_elt = 4) t = elements t * bytes_per_elt

let channels = function Map { c; _ } -> c | Vec n -> n

let conv_out t ~kernel ~stride ~pad ~out_c =
  match t with
  | Vec _ -> invalid_arg "Shape.conv_out: convolution over a vector"
  | Map { h; w; _ } ->
      let out_dim d =
        let v = ((d + (2 * pad) - kernel) / stride) + 1 in
        if v <= 0 then invalid_arg "Shape.conv_out: window does not fit";
        v
      in
      Map { c = out_c; h = out_dim h; w = out_dim w }

let flatten t = Vec (elements t)

let equal a b = a = b

let pp fmt = function
  | Map { c; h; w } -> Format.fprintf fmt "%dx%dx%d" c h w
  | Vec n -> Format.fprintf fmt "%d" n

let to_string t = Format.asprintf "%a" pp t
