open Sim
open Netsim

type Rpc.body +=
  | Agent_check of Addr.t
  | Agent_check_result of bool

type t = {
  anode : Node.t;
  aaddr : Addr.t;
  relays : (string, Bfd.Relay.t) Hashtbl.t;
}

let addr t = t.aaddr

let relay_key id vrf = id ^ "|" ^ vrf

let create net ~fabric aname =
  let anode, aaddr =
    Network.add_leaf net ~delay:(Time.us 20) ~uplink:fabric aname
  in
  let t = { anode; aaddr; relays = Hashtbl.create 32 } in
  let ep = Rpc.endpoint anode in
  Rpc.serve_ping ep ~service:"health";
  Rpc.serve_ping ep ~service:"ipsla";
  Rpc.serve ep ~service:"agent_ctl" (fun ~src:_ body ~reply ->
      match body with
      | Agent_check target ->
          Rpc.ping ep ~timeout:(Time.ms 150) ~dst:target ~service:"ipsla"
            (fun ok -> reply (Agent_check_result ok))
      | _ -> reply (Agent_check_result false));
  t

let start_relay t ~id ~src ~dst ~vrf ~my_disc ~your_disc =
  let key = relay_key id vrf in
  (match Hashtbl.find_opt t.relays key with
  | Some old -> Bfd.Relay.stop old
  | None -> ());
  let relay =
    Bfd.Relay.start t.anode ~src ~dst ~vrf ~my_disc ~your_disc ()
  in
  Hashtbl.replace t.relays key relay

let relay_count t = Hashtbl.length t.relays
