(** The committed zero-findings baseline the CI gate diffs against. *)

type entry = { b_pass : string; b_file : string; b_message : string }

val load : string -> (entry list, string) result
(** Reads a [tensor-lint --json] report (or hand-written baseline):
    only [pass]/[file]/[message] of each entry under ["findings"] are
    consulted. *)

val diff : entry list -> Finding.t list -> Finding.t list
(** Findings not absorbed by a baseline entry; multiset semantics. *)

val stale : entry list -> Finding.t list -> entry list
(** Baseline entries that absorb no finding (same multiset matching as
    {!diff}): the finding went away, so the entry must leave the
    baseline, or it would silently absorb the next one like it. *)

val entry_to_string : entry -> string
