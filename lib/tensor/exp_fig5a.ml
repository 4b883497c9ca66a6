open Sim
open Netsim

type point = { delay_ms : float; throughput_bps : float }
type series = { packet_size : int; points : point list }

(* Endpoint packet rate: a fixed per-segment cost plus a per-byte cost
   (real stacks are limited in both pps and bps). With a 400 KB window the
   no-impact threshold is W / (rate(size) × size); this calibration puts
   the thresholds at ~21/11/5/3/2.1 ms for 100/200/500/1000/2000 B packets —
   the paper's 20/10/5/2/2. *)
let proc_cost = Time.of_us_f 2.5
let proc_cost_per_kb = Time.of_us_f 2.9
let rcv_wnd = 400_000

let iperf ~stack ~egress ~mss ~measure_span =
  let eng = Engine.create () in
  let net = Network.create eng in
  let sender = Network.add_node net "sender" in
  let receiver = Network.add_node net "receiver" in
  let _, _, dst = Network.connect net ~delay:(Time.us 50) sender receiver in
  let s_tx = stack sender in
  let s_rx = stack receiver in
  egress eng ~tx:s_tx ~rx:s_rx;
  let received = ref 0 in
  Tcp.listen s_rx ~port:5001 (fun c ->
      Tcp.on_data c (fun d -> received := !received + String.length d));
  let conn = Tcp.connect s_tx ~mss ~rcv_wnd ~dst ~dst_port:5001 () in
  (* iperf: keep a few windows of data buffered ahead of the ACK point. *)
  let chunk = String.make (64 * 1024) 'i' in
  let written = ref 0 in
  let refill () =
    if Tcp.state conn = Tcp.Established then begin
      let acked = Tcp.snd_una conn - Tcp.iss conn in
      while !written - acked < 3 * rcv_wnd do
        Tcp.write conn chunk;
        written := !written + String.length chunk
      done
    end
  in
  Tcp.on_established conn (fun () -> refill ());
  let refill_timer = Engine.every eng (Time.ms 5) refill in
  (* Warm up, then measure. *)
  let warmup = Time.ms 300 in
  Engine.run_until eng warmup;
  let start_bytes = !received in
  Engine.run_until eng (Time.add warmup measure_span);
  Engine.stop_timer refill_timer;
  let bytes = !received - start_bytes in
  float_of_int (bytes * 8) /. Time.to_sec_f measure_span

(* Hold the receiver's pure ACKs for [delay]. *)
let delay_acks ~delay eng ~tx:_ ~rx =
  if delay > 0 then begin
    let chain = Netfilter.create () in
    ignore
      (Netfilter.add_rule chain (fun pkt ->
           match pkt.Packet.payload with
           | Tcp.Segment.Tcp seg when Tcp.Segment.is_pure_ack seg ->
               Netfilter.Queue 0
           | _ -> Netfilter.Accept));
    Netfilter.set_consumer (Netfilter.queue chain 0) (fun _ ~reinject ->
        ignore
          (Engine.schedule_after eng delay (fun () ->
               reinject Netfilter.Accept)));
    Tcp.set_output_chain rx (Some chain)
  end

let run ?(packet_sizes = [ 100; 200; 500; 1000; 2000 ])
    ?(delays_ms = [ 0.; 1.; 2.; 5.; 10.; 20.; 50. ])
    ?(measure_span = Time.ms 400) () =
  List.map
    (fun packet_size ->
      let points =
        List.map
          (fun delay_ms ->
            let throughput_bps =
              iperf
                ~stack:(Tcp.create_stack ~proc_cost ~proc_cost_per_kb)
                ~egress:(delay_acks ~delay:(Time.of_ms_f delay_ms))
                ~mss:packet_size ~measure_span
            in
            { delay_ms; throughput_bps })
          delays_ms
      in
      { packet_size; points })
    packet_sizes

let threshold_ms series =
  match series.points with
  | [] -> nan
  | base :: _ ->
      List.fold_left
        (fun acc p ->
          if p.throughput_bps >= 0.85 *. base.throughput_bps then
            Float.max acc p.delay_ms
          else acc)
        0.0 series.points

let print (results : series list) =
  Report.section "Figure 5(a): TCP max throughput vs acknowledgment delay";
  let delays =
    match results with
    | s :: _ -> List.map (fun p -> p.delay_ms) s.points
    | [] -> []
  in
  Report.table
    ~header:
      ("pkt size"
      :: List.map (fun d -> Printf.sprintf "%gms" d) delays)
    (List.map
       (fun s ->
         Printf.sprintf "%dB" s.packet_size
         :: List.map (fun p -> Report.fbps p.throughput_bps) s.points)
       results);
  Report.subsection "no-impact delay threshold per packet size";
  let paper_threshold = function
    | 100 -> "20 ms"
    | 200 -> "10 ms"
    | 500 -> "5 ms"
    | 1000 | 2000 -> "2 ms"
    | _ -> "-"
  in
  Report.table
    ~header:[ "pkt size"; "measured threshold"; "paper" ]
    (List.map
       (fun s ->
         [
           Printf.sprintf "%dB" s.packet_size;
           Printf.sprintf "%g ms" (threshold_ms s);
           paper_threshold s.packet_size;
         ])
       results);
  Report.note
    "shape check: throughput flat below the threshold, then decays as W/(RTT+delay);";
  Report.note
    "thresholds shrink with packet size because the baseline (pps-limited) rate grows."
