(** Execute one chaos descriptor under the full invariant-oracle set.

    A run is a body passed to {!Tensor.Check.checked}: it builds the
    Figure 3 deployment from the descriptor's seed and topology, replays
    the fault schedule under every {!Monitor.Checker} invariant, and
    ends with end-state RIB-digest cross-checks. It returns the
    surviving violations together with an MD5 digest of the telemetry
    event stream. The digest is the replay-determinism oracle: running
    the same descriptor twice in one process must produce byte-identical
    telemetry JSONL.

    Fault classes that deliberately produce peer-visible behaviour
    disable exactly the checkers they invalidate (see
    {!disabled_checkers}); everything else stays armed. *)

type outcome = {
  desc : Descriptor.t;
  violations : Monitor.Checker.violation list;
      (** After the applicability filter. *)
  errors : string list;
      (** Setup failures, mid-run exceptions, direct RIB-digest
          mismatches. Any entry means the run failed. *)
  disabled : string list;  (** Checkers excluded for this fault mix. *)
  digest : string;  (** MD5 (hex) of the telemetry JSONL at end of run. *)
  events : int;  (** Entries observed by the checker set. *)
}

val ok : outcome -> bool
(** No violations and no errors. *)

val disabled_checkers : Descriptor.t -> string list
(** The applicability matrix: [rst]/[cease] faults disable
    [no_peer_visible_reset] (the remote AS resets the session on
    purpose); [cease] additionally disables [route_flap_absence] (an
    administrative Cease is not GR-eligible, so the peer legitimately
    drops the learned routes until re-establishment). *)

val run : ?out:string -> Descriptor.t -> outcome
(** Never raises: an exception is reported in [errors], without the
    run's violations. [?out] writes the run's artifacts into that
    directory (see {!Tensor.Check.checked}). *)

val summary : outcome -> string
(** One-paragraph human-readable failure/success description. *)
