type t = {
  mss : int;
  mutable cwnd : int;
  mutable ssthresh_v : int;
  mutable dup_acks : int;
  mutable recover : int; (* snd_nxt at loss detection: recovery ends there *)
  mutable recovering : bool;
}

type ack_reaction = Ack_advanced | Fast_retransmit | Ignore

let create ~mss =
  {
    mss;
    cwnd = 10 * mss;
    ssthresh_v = max_int / 2;
    dup_acks = 0;
    recover = 0;
    recovering = false;
  }

let window t = t.cwnd
let ssthresh t = t.ssthresh_v
let in_recovery t = t.recovering

let grow_on_new_ack t acked =
  if t.cwnd < t.ssthresh_v then
    (* Slow start: one MSS per acked MSS, i.e. grow by the acked bytes. *)
    t.cwnd <- t.cwnd + min acked t.mss
  else
    (* Congestion avoidance: ~one MSS per RTT, approximated per-ACK. *)
    t.cwnd <- t.cwnd + max 1 (t.mss * t.mss / t.cwnd)

let on_ack t ~snd_una ~snd_nxt ~ack =
  if ack > snd_una then begin
    let acked = ack - snd_una in
    t.dup_acks <- 0;
    if t.recovering then begin
      if ack >= t.recover then begin
        (* Full ACK: leave recovery, deflate to ssthresh. *)
        t.recovering <- false;
        t.cwnd <- t.ssthresh_v
      end
      (* Partial ACK (NewReno-lite): stay in recovery, keep the window. *)
    end
    else grow_on_new_ack t acked;
    Ack_advanced
  end
  else if ack = snd_una && snd_nxt > snd_una then begin
    (* Duplicate ACK while data is outstanding. *)
    t.dup_acks <- t.dup_acks + 1;
    if t.recovering then begin
      (* Window inflation: each further dup ACK signals a departure. *)
      t.cwnd <- t.cwnd + t.mss;
      Ignore
    end
    else if t.dup_acks = 3 then begin
      let flight = snd_nxt - snd_una in
      t.ssthresh_v <- max (flight / 2) (2 * t.mss);
      t.cwnd <- t.ssthresh_v + (3 * t.mss);
      t.recover <- snd_nxt;
      t.recovering <- true;
      Fast_retransmit
    end
    else Ignore
  end
  else Ignore

let on_rto t =
  t.ssthresh_v <- max (t.cwnd / 2) (2 * t.mss);
  t.cwnd <- t.mss;
  t.dup_acks <- 0;
  t.recovering <- false

