(** The multi-AS parallelism argument of §4.2.

    "It will take at least 5 seconds for any open-source implementation
    to finish the learning from 50 ASes, where each AS sends 10K updates
    (thus the sum is 500K updates). But thanks to the containerized
    approach which naturally enables parallelism, each BGP process in
    TENSOR only needs to connect to one to several ASes, and hence bears
    sub-second's overhead."

    The experiment runs both arrangements: a monolithic speaker holding
    all the sessions in one process (one main thread), and one speaker
    per AS (TENSOR's per-container split, each with live replication),
    everything announcing simultaneously. *)

type result = {
  ases : int;
  monolithic_s : float;  (** Last update applied, single process. *)
  containerized_s : float;  (** Max over containers. *)
}

val run : ?ases:int -> unit -> result
(** [ases] peering ASes (default 50) of 10K updates each. *)

val print : result -> unit
