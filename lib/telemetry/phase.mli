(** A recovery's phases, paired from the bus milestones.

    The one reader of the recovery milestones: Table 1's columns, the
    health budgets, the critical path and the Perfetto phase track all
    come from {!of_entries}, so every instant a phase holds is an entry
    of [events.jsonl]. A phase opens at one entry and closes at the next
    closing entry of the same name and key:

    - per service:
      - [failover]: [Failure_injected] to the first [Tcp_synced];
      - [planned_migration]: [Planned_migration] to the first
        [Tcp_synced];
      - [detect]: [Failure_injected] to [Failure_detected];
      - [initiate]: [Failure_detected] to [Migration_initiated];
      - [migrate]: [Migration_initiated] to [Migration_done];
    - per (service, vrf), keyed ["service|vrf"]:
      - [replica_catchup]: [Catchup_start] to [Catchup_done];
      - [tcp_replay]: [Catchup_done] to [Tcp_synced];
    - [bfd_detect]: one per [Bfd_down] whose [silent_s] is positive,
      from the last packet heard ([at - silent_s]) to [at], keyed
      ["node|peer|vrf"].

    An opening entry whose phase is still open for its key starts a new
    one and leaves the older one unfinished. Entries of other kinds are
    ignored. *)

type t = {
  name : string;
  key : string;
  start_at : Sim.Time.t;
  stop_at : Sim.Time.t option;  (** [None]: never closed. *)
  open_seq : int;  (** [seq] of the entry that opened the phase. *)
  close_seq : int option;  (** [seq] of the entry that closed it. *)
}

val of_entries : Bus.entry list -> t list
(** The phases of [entries] (in [seq] order), in the order they opened;
    [failover] before [detect] when one entry opens both. *)

val seconds : name:string -> t list -> float
(** The duration of the first finished phase named [name], in seconds;
    [nan] when none finished. *)
