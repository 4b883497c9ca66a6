(** A Redis-like in-memory key-value store over the simulated network.

    This is the "highly-available distributed database" of TENSOR §3.1.1:
    BGP messages, inferred ACK numbers, TCP repair state and routing-table
    checkpoints are all replicated here synchronously before the
    corresponding TCP ACKs are released or messages sent.

    The server keeps everything in RAM (the paper configures Redis without
    disk persistence, §4.1) and models request latency with explicit cost
    components — a per-request network round trip, a per-chunk pipelining
    cost, and a per-record CPU cost — calibrated so that batched GET/SET
    totals reproduce the curves of Figure 5(b): a single ~4 KB-record read
    costs under 0.5 ms, a single write about 1 ms (≈2.5× the read), 10 000
    reads about 200 ms and 10 000 writes about 500 ms.

    Requests from one client are answered in order (the transport is a
    FIFO link), which provides the per-connection message ordering that
    §3.1.2 requires; ordering across connections is deliberately not
    promised, matching the paper. An optional synchronous replica models
    the store's own fault tolerance. *)

(** {1 Values and batches} *)

(** A stored value: a head string that many records may share
    physically, then the record's own tail. The store models the value
    as the bytes of [head ^ tail] — that length is what the cost model
    charges and what request, response and storage sizes count —
    whatever the split, so sharing a head changes no modelled size. *)
module Value : sig
  type t

  val v : head:string -> tail:string -> t
  (** [head] is kept as given, not copied: records built from one
      message share it. *)

  val of_string : string -> t
  (** A value with an empty head. *)

  val head : t -> string
  val tail : t -> string

  val to_string : t -> string
  (** [head ^ tail]; the tail itself when the head is empty. *)
end

(** One write request's records, in order. *)
module Batch : sig
  type t

  val create : int -> t
  (** [create n] is an empty batch expected to hold up to [n] records.
      It starts with a small chunk and grows to [n] slots at once (past
      [n], it doubles), so the expected size is only a hint. *)

  val add : t -> string -> Value.t -> unit
  (** Appends a record. A batch must not change once written. *)

  val length : t -> int

  val of_strings : (string * string) list -> t
  (** A batch of plain values ({!Value.of_string}), in list order. *)
end

(** {1 Server} *)

type cost_model = {
  chunk : int;  (** Records per pipelining chunk. *)
  read_chunk_cost : Sim.Time.span;
  read_record_cost : Sim.Time.span;  (** Fixed part, per record. *)
  read_byte_ns : float;  (** Plus this much per value byte. *)
  write_chunk_cost : Sim.Time.span;
  write_record_cost : Sim.Time.span;
  write_byte_ns : float;
}

module Server : sig
  type t

  val create : ?cost:cost_model -> Netsim.Node.t -> t
  (** [create node] serves the ["kv"] RPC service on [node]. [cost] is a
      test seam: every product server runs the calibrated model, and
      tests pass {!free_cost_model} to take processing time out of a
      protocol check. *)

  val attach_replica : t -> t -> unit
  (** [attach_replica primary replica] makes [replica] a synchronous
      replica of [primary]: the primary acknowledges a write or delete
      only after the replica has applied it. The replica must have been
      created on a different node (it does not itself serve clients in
      this role, though nothing prevents reads against it). A replica
      found dead at apply time is detached and the primary acknowledges
      alone — degraded redundancy rather than a wedged write path. *)

  val crash : t -> unit
  (** The store process dies: every record (and the idempotency cache)
      is lost — the paper's no-persistence Redis — and requests are
      dropped unanswered until {!restart}. The node itself stays up;
      use [Netsim.Node.set_up] for a partition that preserves RAM.
      Emits [Store_crashed]. Idempotent. *)

  val restart : t -> unit
  (** Brings a crashed process back, empty. Emits [Store_restarted]. *)

  val promote : t -> unit
  (** Declares this (replica) server the authoritative primary: any
      replica pointer of its own is cleared and [Store_promoted] is
      emitted. Clients switch to it via their failover path. *)

  val set_cost_factor : t -> float -> unit
  (** Multiplies every modelled processing cost by [factor >= 1] — a
      slow store (GC pause, overload). [1.0] restores the calibrated
      model. *)

  val node : t -> Netsim.Node.t
  val addr : t -> Netsim.Addr.t

  val records : t -> int
  val stored_bytes : t -> int
  (** Total size of keys plus values — the quantity §3.1.2's
      storage-trimming argument bounds per connection. *)

  val peek : t -> string -> string option
  (** Direct local read, no latency model (tests and invariant checks):
      {!Value.to_string} of the stored value. *)

  val keys_with_prefix : t -> string -> string list
  (** Direct local prefix scan, no latency model. *)
end

(** {1 Client} *)

module Client : sig
  type t

  (** How a client rides out an unanswering server. *)
  type mode =
    | Plain  (** One attempt per op, [`Timeout] on silence. *)
    | Retrying
        (** Ops are serialized (one outstanding at a time, preserving
            per-client FIFO order across retransmissions), tagged with an
            idempotency id the server deduplicates on, and retried
            ([Netsim.Rpc.call ~retry:true]). *)
    | Failover of Netsim.Addr.t
        (** [Retrying], and once the budget is exhausted on the primary,
            failed over to this replica permanently (emitting
            [Store_failover]). Ops that fail on both targets yield
            [`Timeout]; later ops re-try the promoted replica, so a
            healed store resumes service. *)

  val create : ?mode:mode -> Netsim.Node.t -> server:Netsim.Addr.t -> t
  (** Default [Plain]. *)

  val set_batch :
    t -> ?timeout:Sim.Time.span -> Batch.t ->
    ((unit, [ `Timeout ]) result -> unit) -> unit
  (** Batched write, applied in batch order; the callback fires when
      every record is durable on the server (and its replica, if any).
      The request's modelled size is 64 bytes plus the length of every
      key and flat value. *)

  val set :
    t -> ?timeout:Sim.Time.span -> (string * string) list ->
    ((unit, [ `Timeout ]) result -> unit) -> unit
  (** {!set_batch} of plain values. *)

  val get :
    t -> ?timeout:Sim.Time.span -> string list ->
    (((string * string option) list, [ `Timeout ]) result -> unit) -> unit
  (** Batched read; preserves request order in the reply. *)

  val del :
    t -> ?timeout:Sim.Time.span -> string list ->
    ((int, [ `Timeout ]) result -> unit) -> unit
  (** Deletes keys; yields how many existed. *)

  val scan :
    t -> prefix:string ->
    (((string * Value.t) list, [ `Timeout ]) result -> unit) -> unit
  (** All (key, value) pairs whose key starts with [prefix], sorted by
      key, within 30 s — how a backup container downloads a connection's
      state. The values come as stored, heads still shared, so a reader
      can parse a shared head once. *)
end

(** {1 Test-only} *)

val free_cost_model : cost_model
(** Kept: zero processing cost, for unit tests that exercise semantics
    without the calibrated latencies. *)
