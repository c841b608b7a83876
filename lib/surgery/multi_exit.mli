(** Multi-exit model deployment.

    A multi-exit model carries several exit heads simultaneously; at run
    time each input leaves at the first exit that is confident about it
    (BranchyNet semantics).  The online simulator uses this to draw
    per-request compute: easy inputs cost the shallow prefix, hard inputs
    run deep. *)

type t = private {
  base : Es_dnn.Graph.t;
  exits : Plan.t array;  (** one plan per head, shallowest first, last = full *)
  probs : float array;  (** probability an input takes each exit *)
  deployment_accuracy : float;  (** expectation over the exit distribution *)
}

val build : ?kappa:float -> ?width:float -> Es_dnn.Graph.t -> t
(** [build g] attaches heads at every flagged exit candidate of [g] plus
    the full-depth exit.  [kappa] is the input-easiness parameter of
    {!Accuracy.exit_distribution}. *)

val sample_exit : Es_util.Prng.t -> t -> int
(** Index into [exits], drawn from [probs]. *)

val expected_flops : t -> float
(** Mean FLOPs per inference under the exit distribution — the headline
    saving of multi-exit inference. *)
