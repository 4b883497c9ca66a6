(* Tests for the Netfilter-style hook layer: rule ordering, verdicts,
   NFQUEUE semantics (including the reader-less drop that hides a crashed
   process's FIN/RST), and reinjection discipline. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pkt ?(src = "1.1.1.1") ?(dst = "2.2.2.2") ?(size = 64) () =
  Packet.make ~src:(Addr.of_string src) ~dst:(Addr.of_string dst) ~size
    (Packet.Raw "x")

(* Verdict counts, read off the registry's [netfilter.*] counters: each
   test zeroes them first, its chain being the only one traversed. *)
let count verdict =
  Telemetry.Registry.value (Telemetry.Registry.counter ("netfilter." ^ verdict))

let test_empty_chain_accepts () =
  Telemetry.Registry.reset_values ();
  let chain = Netfilter.create () in
  let emitted = ref 0 in
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> incr emitted);
  checki "emitted" 1 !emitted;
  checki "accepted counter" 1 (count "accepted")

let test_drop_rule () =
  Telemetry.Registry.reset_values ();
  let chain = Netfilter.create () in
  ignore (Netfilter.add_rule chain (fun _ -> Netfilter.Drop));
  let emitted = ref 0 in
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> incr emitted);
  checki "nothing emitted" 0 !emitted;
  checki "dropped counter" 1 (count "dropped")

let test_insertion_order () =
  let chain = Netfilter.create () in
  let hits = ref [] in
  let rule name =
    Netfilter.add_rule chain (fun _ ->
        hits := name :: !hits;
        Netfilter.Accept)
  in
  let first = rule "first" in
  ignore (rule "second");
  Netfilter.remove_rule chain first;
  ignore (rule "third");
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> ());
  Alcotest.(check (list string))
    "installation order" [ "third"; "second" ] !hits

let test_first_verdict_stops_traversal () =
  let chain = Netfilter.create () in
  let later = ref 0 in
  ignore (Netfilter.add_rule chain (fun _ -> Netfilter.Drop));
  ignore
    (Netfilter.add_rule chain (fun _ ->
         incr later;
         Netfilter.Accept));
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> ());
  checki "later rule not consulted" 0 !later

let test_remove_rule () =
  let chain = Netfilter.create () in
  let rule = Netfilter.add_rule chain (fun _ -> Netfilter.Drop) in
  Netfilter.remove_rule chain rule;
  let emitted = ref 0 in
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> incr emitted);
  checki "accepts after removal" 1 !emitted

let test_queue_without_consumer_drops () =
  (* Real NFQUEUE semantics: reader-less queues drop. This is what hides
     a crashed BGP process's kernel FIN/RST from the remote peer. *)
  Telemetry.Registry.reset_values ();
  let chain = Netfilter.create () in
  ignore (Netfilter.add_rule chain (fun _ -> Netfilter.Queue 0));
  let emitted = ref 0 in
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> incr emitted);
  checki "dropped" 0 !emitted;
  checki "drop counter" 1 (count "dropped")

let test_queue_consumer_holds_and_releases () =
  let eng = Engine.create () in
  let chain = Netfilter.create () in
  ignore (Netfilter.add_rule chain (fun _ -> Netfilter.Queue 3));
  let q = Netfilter.queue chain 3 in
  Netfilter.set_consumer q (fun _ ~reinject ->
      ignore
        (Engine.schedule_after eng (Time.ms 10) (fun () ->
             reinject Netfilter.Accept)));
  let emitted_at = ref None in
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ ->
      emitted_at := Some (Engine.now eng));
  checki "held (backlog)" 1 (Netfilter.backlog q);
  Engine.run eng;
  checkb "released after 10ms" true (!emitted_at = Some (Time.ms 10));
  checki "backlog drained" 0 (Netfilter.backlog q)

let test_queue_consumer_drop_verdict () =
  Telemetry.Registry.reset_values ();
  let chain = Netfilter.create () in
  ignore (Netfilter.add_rule chain (fun _ -> Netfilter.Queue 0));
  Netfilter.set_consumer (Netfilter.queue chain 0) (fun _ ~reinject ->
      reinject Netfilter.Drop);
  let emitted = ref 0 in
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> incr emitted);
  checki "consumer dropped it" 0 !emitted;
  checki "dropped counter" 1 (count "dropped")

let test_reinject_exactly_once () =
  let chain = Netfilter.create () in
  ignore (Netfilter.add_rule chain (fun _ -> Netfilter.Queue 0));
  let saved = ref None in
  Netfilter.set_consumer (Netfilter.queue chain 0) (fun _ ~reinject ->
      saved := Some reinject);
  let emitted = ref 0 in
  Netfilter.traverse chain (pkt ()) ~emit:(fun _ -> incr emitted);
  (match !saved with
  | Some reinject ->
      reinject Netfilter.Accept;
      reinject Netfilter.Accept;
      reinject Netfilter.Drop
  | None -> Alcotest.fail "no reinject");
  checki "double reinject ignored" 1 !emitted

let test_selective_rule () =
  let chain = Netfilter.create () in
  let target = Addr.of_string "9.9.9.9" in
  ignore
    (Netfilter.add_rule chain (fun p ->
         if Addr.equal p.Packet.dst target then Netfilter.Drop
         else Netfilter.Accept));
  let emitted = ref 0 in
  Netfilter.traverse chain (pkt ~dst:"9.9.9.9" ()) ~emit:(fun _ -> incr emitted);
  Netfilter.traverse chain (pkt ~dst:"8.8.8.8" ()) ~emit:(fun _ -> incr emitted);
  checki "only non-matching emitted" 1 !emitted

let test_independent_queues () =
  let chain = Netfilter.create () in
  let target = Addr.of_string "9.9.9.9" in
  ignore
    (Netfilter.add_rule chain (fun p ->
         if Addr.equal p.Packet.dst target then Netfilter.Queue 1
         else Netfilter.Queue 2));
  let got1 = ref 0 and got2 = ref 0 in
  Netfilter.set_consumer (Netfilter.queue chain 1) (fun _ ~reinject ->
      incr got1;
      reinject Netfilter.Accept);
  Netfilter.set_consumer (Netfilter.queue chain 2) (fun _ ~reinject ->
      incr got2;
      reinject Netfilter.Accept);
  Netfilter.traverse chain (pkt ~dst:"9.9.9.9" ()) ~emit:(fun _ -> ());
  Netfilter.traverse chain (pkt ~dst:"8.8.8.8" ()) ~emit:(fun _ -> ());
  Netfilter.traverse chain (pkt ~dst:"8.8.8.8" ()) ~emit:(fun _ -> ());
  checki "queue 1" 1 !got1;
  checki "queue 2" 2 !got2

let prop_verdict_conservation =
  QCheck.Test.make ~name:"every packet is accepted or dropped, never both"
    ~count:100
    QCheck.(list (int_bound 2))
    (fun verdicts ->
      Telemetry.Registry.reset_values ();
      let chain = Netfilter.create () in
      ignore
        (Netfilter.add_rule chain (fun p ->
             match p.Packet.size mod 3 with
             | 0 -> Netfilter.Accept
             | 1 -> Netfilter.Drop
             | _ -> Netfilter.Queue 0));
      Netfilter.set_consumer (Netfilter.queue chain 0) (fun _ ~reinject ->
          reinject Netfilter.Accept);
      let emitted = ref 0 in
      List.iteri
        (fun i v ->
          ignore v;
          Netfilter.traverse chain (pkt ~size:(i + 1) ()) ~emit:(fun _ ->
              incr emitted))
        verdicts;
      count "accepted" + count "dropped" = List.length verdicts
      && !emitted = count "accepted")

let () =
  Alcotest.run "netfilter"
    [
      ( "rules",
        [
          Alcotest.test_case "empty chain accepts" `Quick test_empty_chain_accepts;
          Alcotest.test_case "drop rule" `Quick test_drop_rule;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "first verdict wins" `Quick
            test_first_verdict_stops_traversal;
          Alcotest.test_case "remove rule" `Quick test_remove_rule;
          Alcotest.test_case "selective rule" `Quick test_selective_rule;
        ] );
      ( "nfqueue",
        [
          Alcotest.test_case "reader-less queue drops" `Quick
            test_queue_without_consumer_drops;
          Alcotest.test_case "hold and release" `Quick
            test_queue_consumer_holds_and_releases;
          Alcotest.test_case "consumer drop verdict" `Quick
            test_queue_consumer_drop_verdict;
          Alcotest.test_case "reinject exactly once" `Quick
            test_reinject_exactly_once;
          Alcotest.test_case "independent queues" `Quick test_independent_queues;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_verdict_conservation ] );
    ]
