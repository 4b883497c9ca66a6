(** A minimal JSON reader for the repo's own emitters (health reports,
    bench snapshots, JSONL telemetry lines).

    Hand-rolled because the build has no third-party dependencies.
    Standard JSON is accepted; all numbers are read as floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
val parse_exn : string -> t

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_float : t -> float option
val to_int : t -> int option
(** Integral [Num]s only. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
