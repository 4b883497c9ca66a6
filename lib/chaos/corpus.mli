(** The committed regression corpus.

    Each corpus entry is one file holding one descriptor line (see
    {!Descriptor.to_string}) plus optional [#] comment lines. Entries
    are shrunk repros of bugs that have since been fixed: replaying the
    corpus must be all-green, and replaying any entry twice must yield
    identical telemetry digests. CI replays the corpus on every PR and
    the nightly fuzz job appends new shrunk repros as artifacts. *)

val save : dir:string -> comment:string -> Descriptor.t -> string
(** Writes [<dir>/seed<seed>-<fingerprint>.chaos] (creating [dir] and
    its parents if needed) and returns the path. [comment] lines are
    prefixed with [# ]. *)

type replay = {
  name : string;
  outcome : Runner.outcome option;  (** [None] on a parse error. *)
  parse_error : string option;
  deterministic : bool;  (** Two runs produced identical digests. *)
}

val replay_ok : replay -> bool

val replay_file : string -> replay
(** Runs the entry twice: green means no violations/errors on either
    run {e and} digest equality across the two. *)

val replay_dir : string -> replay list

(** {1 Test-only} *)

val load_dir : string -> (string * (Descriptor.t, string) result) list
(** Inspection: {!replay_dir}'s parse step without the runs: every
    [*.chaos] file in the directory, sorted by name. Missing directory
    is an empty corpus. *)
