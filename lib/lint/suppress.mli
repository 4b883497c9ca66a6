(** Source-comment suppressions.

    A finding is silenced by a comment whose text is
    [lint: allow <pass>[,<pass>...] — reason], placed either on the
    offending line or alone on the line directly above it. The reason is
    mandatory (separated by an em-dash or ["--"]); a reasonless or
    malformed directive suppresses nothing and is itself reported under
    the meta pass ["suppress"], as is a directive that matches no
    finding. *)

type directive = {
  d_line : int;  (** line the comment sits on (1-based) *)
  target : int;  (** line findings must be on to match *)
  passes : string list;
  reason : string option;
  error : string option;  (** parse problem; the directive is inert *)
}

val meta_pass : string
(** ["suppress"] *)

val scan : string -> directive list
(** Extract directives from raw source text. Directives must open and
    state their pass list on a single line. *)

val apply :
  file:string ->
  known_passes:string list ->
  directive list ->
  Finding.t list ->
  Finding.t list * int
(** [apply ~file ~known_passes ds findings] returns the findings that
    survive suppression — including meta findings for malformed,
    reasonless, unknown-pass, and unused directives — plus the number of
    findings that were suppressed. *)
