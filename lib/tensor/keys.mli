(** Store key schema and record codecs (§3.1.2).

    Every replicated datum lives under a key whose leading component
    selects the record kind and whose connection id scopes it to one BGP
    session (one container VRF = one peering AS):

    - [meta|<conn>] — session metadata: addresses, ports, negotiated
      parameters, the peer's OPEN, initial sequence numbers (the
      TCP_REPAIR bootstrap of "Matching ACK numbers");
    - [ack|<conn>] — the replicated-ACK watermark: the highest inferred
      ACK whose message is durable;
    - [in|<conn>|<seq>] — a received message awaiting application
      (deleted once applied and checkpointed — the ≤ 64 KB storage-bound
      argument);
    - [out|<conn>|<offset>] — a sent message, keyed by its byte offset in
      the TCP send stream (rebuilds the sender buffer on takeover);
    - [outtrim|<conn>] — send-stream offset acknowledged by the peer
      (records below it are deleted);
    - [bfd|<conn>] — the BFD discriminator pair (the agent relay's and
      the resumed session's identity);
    - [rib|<service>|<vrf>|<prefix>] — routing-table checkpoint entries.

    Values with binary content (BGP frames) are hex-encoded inside
    line-oriented records, except the frame of an [in|] record, which
    is stored as received. Records built from one message share their
    head ({!Store.Value}): the modelled size of every record is that of
    its flat text, whatever the split. *)

type conn_id = string
(** ["<service>|<vrf>"]. *)

val conn_id : service:string -> vrf:string -> conn_id

val epoch_cid : conn_id -> int -> conn_id
(** Epoch-qualified connection id naming one TCP connection's stream
    key space. Stream-scoped records (ack/in/out/outtrim/part) are
    written under [epoch_cid cid epoch]; the meta record carries the
    epoch, so recovery reads exactly the key space of the connection it
    resumes and a straggler write from a torn-down predecessor stream
    can never corrupt the successor's cursors. [epoch_cid cid 0 = cid]. *)

val meta_key : conn_id -> string
val ack_key : conn_id -> string
val in_key : conn_id -> int -> string
val in_prefix : conn_id -> string
val out_key : conn_id -> int -> string
val out_prefix : conn_id -> string
val outtrim_key : conn_id -> string
val bfd_key : conn_id -> string
val part_key : conn_id -> string
(** Key of the replicated partial-frame tail: written when a stalled
    sender has delivered only a fragment of a message, so the fragment's
    ACK can be released without breaking recoverability. *)

val rib_key : service:string -> vrf:string -> Netsim.Addr.prefix -> string
val rib_prefix : service:string -> string

val seq_of_in_key : conn_id -> string -> int option
val offset_of_out_key : conn_id -> string -> int option
val vrf_prefix_of_rib_key : service:string -> string -> (string * Netsim.Addr.prefix) option

(** {1 Record codecs} *)

type meta = {
  epoch : int;  (** Connection epoch naming the stream-scoped key space. *)
  vrf : string;
  local_addr : Netsim.Addr.t;
  local_port : int;
  peer_addr : Netsim.Addr.t;
  peer_port : int;
  local_asn : int;
  hold_time : int;  (** Negotiated. *)
  as4 : bool;
  iss : int;
  irs : int;
  mss : int;
  rcv_wnd : int;
  peer_open_raw : string;  (** Encoded OPEN frame. *)
  peer_supports_gr : bool;
  peer_gr_restart_time : int;
}

val encode_meta : meta -> string
val decode_meta : string -> (meta, string) result

val encode_in_record : ack:int -> raw:string -> Store.Value.t
(** Head ["<ack>:"], tail the frame itself (not copied). *)

val decode_in_record : Store.Value.t -> (int * string, string) result
(** [(inferred_ack, raw_frame)]. *)

val encode_rib_entry : Bgp.Rib.source -> Netsim.Addr.prefix -> Bgp.Attrs.t -> string
(** The checkpoint record of one Loc-RIB best path, flat: its source
    fields and the hex of the one-prefix UPDATE that re-announces it. *)

type rib_encoder
(** A one-entry cache for {!encode_rib_entry_with}: the record heads of
    the last (source, attributes) pair, compared physically. Each owner
    (one per replicator) creates its own; there is no shared state. *)

val rib_encoder : unit -> rib_encoder

val encode_rib_entry_with :
  rib_encoder -> Bgp.Rib.source -> Netsim.Addr.prefix -> Bgp.Attrs.t ->
  Store.Value.t
(** The record {!encode_rib_entry} flattens, split before the NLRI. The
    head holds the frame length, so it is one string per (source,
    attributes, NLRI size): every prefix of one UPDATE with the same
    NLRI size shares it physically, and the tail is the NLRI's hex. *)

type rib_decoder
(** A one-entry cache for {!decode_rib_entry}: the last head parsed. *)

val rib_decoder : unit -> rib_decoder

val decode_rib_entry :
  rib_decoder -> Store.Value.t ->
  (Bgp.Rib.source * Netsim.Addr.prefix * Bgp.Attrs.t, string) result
(** Inverse of {!encode_rib_entry_with}. A head equal to the previous
    call's is not parsed again; only the tail's prefix is read. A value
    not split as the encoder splits it is an [Error]. *)

val encode_bfd : my_disc:int -> your_disc:int -> string
val decode_bfd : string -> (int * int, string) result

val encode_part : offset:int -> bytes:string -> string
(** [offset] is the count of parsed stream bytes the fragment follows. *)

val decode_part : string -> (int * string, string) result

val hex : string -> string
(** Lowercase, two digits per byte. *)

val unhex : string -> (string, string) result
(** Inverse of {!hex}; accepts upper- and lowercase digits and nothing
    else. [Error "odd hex length"] or [Error "bad hex"] otherwise. *)
