(** Greedy minimization of failing descriptors.

    Given a descriptor whose run fails (violations or errors),
    [minimize] searches for a smaller descriptor that still fails:
    first ddmin-style removal of fault chunks and single faults, then
    topology/workload reduction (fewer peers, fewer prefixes, no
    churn). Every candidate is re-executed, so
    the result is a verified minimal repro, ready to be committed to the
    corpus as one line. *)

type result = {
  minimal : Descriptor.t;
  outcome : Runner.outcome;  (** The failing outcome of [minimal]. *)
  runs_used : int;
  removed_faults : int;  (** Faults dropped relative to the input. *)
}

val minimize :
  ?max_runs:int ->
  Descriptor.t ->
  result option
(** [minimize d] re-runs [d] first; returns [None] if it passes
    ({!Runner.ok}: nothing to shrink). [max_runs] (default 48) bounds the
    total number of candidate executions, original check included. *)
