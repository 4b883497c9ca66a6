(** Sequence-numbered byte stream storage for the TCP send path.

    Holds the bytes from the lowest unacknowledged sequence number to the
    end of what the application has written. Appends are chunked exactly
    as the application wrote them; reads are clipped random access by
    sequence number with a fast path for the sequential transmit cursor.
    When a read covers exactly one whole chunk the original string is
    returned without copying, so MSS-aligned bulk senders do not copy
    payload bytes at all. *)

type t

val create : int -> t
(** [create seq] is an empty buffer whose next appended byte has sequence
    number [seq]. *)

val append : t -> string -> unit
(** Appends application bytes (empty strings are ignored). *)

val end_seq : t -> int
(** One past the last byte written. *)

val drop_until : t -> int -> unit
(** [drop_until t seq] discards bytes below [seq] (acknowledged data).
    Dropping below [start_seq] is a no-op; dropping beyond [end_seq]
    empties the buffer. *)

val read : t -> seq:int -> len:int -> string
(** [read t ~seq ~len] is up to [len] bytes starting at [seq], clipped to
    the retained range. Raises [Invalid_argument] if [seq] is below
    [start_seq]. *)

val chunks_from : t -> seq:int -> (int * string) list
(** All retained data at or above [seq] as [(seq, bytes)] pairs — used by
    the TCP_REPAIR export. *)

(** {1 Test-only} *)

val start_seq : t -> int
(** Inspection: sequence number of the first retained byte, which tests
    check {!drop_until} advances and clips. *)
