(** BGP messages and the RFC 4271 wire codec.

    All five message types of RFC 4271 §4 plus ROUTE-REFRESH (RFC 2918)
    are implemented, with a binary encoder/decoder and a stream framer
    that reassembles messages from TCP's byte stream. Four-octet AS
    numbers follow RFC 6793 (AS_TRANS in the OPEN header, capability 65,
    and 4-byte AS_PATH encoding when negotiated).

    The maximum message size is 4096 bytes (RFC 4271 §4.1) — the bound
    the paper uses for its 4 KB replication records. *)

type capability =
  | Cap_route_refresh
  | Cap_four_octet_asn of int  (** The speaker's real ASN. *)
  | Cap_graceful_restart of { restart_time : int; preserved_fwd : bool }
      (** RFC 4724: restart time in seconds; whether forwarding state is
          preserved across the restart. *)
  | Cap_unknown of int * string

type open_msg = {
  version : int;
  asn : int;  (** Real ASN (possibly > 65535; wire uses AS_TRANS). *)
  hold_time : int;  (** Seconds; 0 disables keepalives. *)
  router_id : Netsim.Addr.t;
  capabilities : capability list;
}

type update = {
  withdrawn : Netsim.Addr.prefix list;
  attrs : Attrs.t option;  (** [None] on pure withdrawals and End-of-RIB. *)
  nlri : Netsim.Addr.prefix list;
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_msg
  | Update of update
  | Notification of notification
  | Keepalive
  | Route_refresh of { afi : int; safi : int }

val end_of_rib : t
(** The RFC 4724 End-of-RIB marker: an UPDATE with no content. *)

val is_end_of_rib : t -> bool

val update_count : t -> int
(** Routing updates carried: NLRI count plus withdrawn count (what the
    paper's Figure 6 x-axes count). 0 for non-UPDATE messages. *)

val max_size : int
(** 4096. *)

(** {1 Codec} *)

type error =
  | Bad_marker
  | Bad_length of int
  | Bad_type of int
  | Too_long of int
  | Malformed of string

val pp_error : Format.formatter -> error -> unit

val encode : ?as4:bool -> t -> string
(** Full wire frame, header included. [as4] (default [true]) selects
    4-byte AS_PATH encoding. Raises [Invalid_argument] if the message
    exceeds {!max_size}. *)

val decode : ?as4:bool -> string -> (t, error) result
(** Decodes exactly one complete frame. *)

val error_notification : error -> t
(** The NOTIFICATION a speaker sends for a decode error (RFC 4271 §6). *)

(** {1 Stream framing} *)

module Framer : sig
  type msg = t

  type t

  val create : ?as4:bool -> unit -> t

  val push : t -> string -> (msg * string, error) result list
  (** Feeds stream bytes; returns the complete messages they finish (each
      with its wire frame) in order. After an error the framer is
      poisoned and returns only that error — a real speaker tears the
      session down. *)

  val buffered_bytes : t -> string
  (** The held partial-frame bytes themselves (TENSOR replicates them
      when a stalled sender cannot complete the frame, see
      {!Tensor.Replicator}). *)
end
