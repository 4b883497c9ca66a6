(** The linter driver: parse with compiler-libs, run every registered
    pass, apply source-comment suppressions, report. *)

val passes : Pass.t list
(** The registered passes, in catalogue order. *)

val lint_paths : string list
(** What [tensor-lint], [dune build @lint] and the repo gate in
    test_lint lint: [lib bin bench examples]. *)

val reader_paths : string list
(** Sources that are parsed only as readers for i1, never linted:
    [perfsuite test]. *)

type report = {
  findings : Finding.t list;
  files : int;
  suppressed : int;
}

val run :
  ?jobs:int -> readers:string list -> paths:string list -> unit -> report
(** Scan every [.ml] and [.mli] file under [paths]; the [.ml] files
    under [readers] that [paths] does not cover are parsed as readers
    only (see {!reader_paths}). [jobs > 1] fans the per-file stage
    (read, parse, per-file passes, suppression scan) out over a
    [Par.Pool] of domains — results merge in sorted-file order, so the
    report is byte-identical for every [jobs] value. The call-graph
    passes then run once on the calling domain. *)

val to_text : report -> new_findings:Finding.t list -> string
(** Human report: one line per finding plus a summary tail. *)

val to_json : report -> new_findings:Finding.t list -> string
(** Machine report; parses with [Monitor.Json] and doubles as a
    baseline file. *)

val to_github : new_findings:Finding.t list -> string
(** GitHub workflow-command annotations ([::error file=..,line=..::msg])
    for the new findings, one per line; empty string when clean. *)

val explain : string -> string option
(** [explain pass_name] renders the pass's doc, rationale, minimal
    positive example and the suppression grammar; [None] for unknown
    names. *)

(** {1 Test-only} *)

val lint_sources :
  ?readers:(string * string) list ->
  (string * string) list ->
  Finding.t list * int
(** Kept: {!run} over in-memory sources, so tests lint seeded snippets
    without files. Lint compilation units given as [(file, text)] pairs,
    [.ml] or [.mli] by file name, together, with [readers] as
    reader-only sources (a seam for test_lint's [i1] cases, which need
    readers). Returns surviving findings (sorted) and the number of
    suppressed ones. An unparseable unit yields a single ["parse"]
    finding. *)
