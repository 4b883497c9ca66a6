(* Quickstart: bring up a TENSOR deployment with one peering AS, exchange
   routes in both directions, and inspect the result.

     dune exec examples/quickstart.exe

   This is the smallest end-to-end use of the public API: a cluster
   (fabric + hosts + agent + controller + store), one external AS running
   an FRRouting-profile speaker, and one TENSOR service (a containerized
   BGP+BFD pair with live replication). *)

open Sim
open Netsim

let () =
  (* 1. Build the cluster of Figure 3. *)
  let dep = Tensor.Deploy.build () in
  let eng = dep.Tensor.Deploy.eng in

  (* 2. A remote peering AS (AS 65010) on the forwarding fabric, and
     the spec of a service VRF peering with it: VRF v0 on the standard
     service address, speaking BGP as AS 64900. *)
  let { Tensor.Deploy.peer; spec; _ } = Tensor.Deploy.standard_peering dep in

  (* 3. A TENSOR service: one container running that VRF. *)
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"gateway-1"
      ~local_asn:Tensor.Deploy.local_asn [ spec ]
  in

  (* 4. Wait for the session (container boot + TCP + OPEN exchange). *)
  if not (Tensor.Deploy.wait_established dep svc ()) then
    failwith "session did not establish";
  Format.printf "session established at t=%a@." Time.pp (Engine.now eng);

  (* 5. Routes in both directions. *)
  Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 1_000);
  (match Tensor.App.speaker (Tensor.Deploy.service_app svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        [ Addr.prefix_of_string "198.18.0.0/16" ]
  | None -> assert false);
  Engine.run_for eng (Time.sec 10);

  (* 6. Inspect. *)
  Format.printf "TENSOR VRF v0 now holds %d prefixes (1000 learned + 1 own)@."
    (Tensor.Deploy.service_routes svc ~vrf:"v0");
  let peer_rib = Bgp.Speaker.rib peer.Tensor.Deploy.pa_speaker ~vrf:"v0" in
  Format.printf "peer VRF holds %d prefixes (1000 own + 1 from TENSOR)@."
    (Bgp.Rib.size peer_rib);
  (match
     Bgp.Rib.best peer_rib (Addr.prefix_of_string "198.18.0.0/16")
   with
  | Some best ->
      Format.printf "peer's best path for 198.18.0.0/16: %a@." Bgp.Attrs.pp
        best.Bgp.Rib.attrs
  | None -> Format.printf "route missing!@.");

  (* 7. The replication machinery at work: session metadata, the ACK
     watermark and the routing-table checkpoint all live in the store. *)
  let store = dep.Tensor.Deploy.store_server in
  Format.printf "store holds %d records (%d KB) for this connection@."
    (Store.Server.records store)
    (Store.Server.stored_bytes store / 1024);
  let rib_keys =
    Store.Server.keys_with_prefix store
      (Tensor.Keys.rib_prefix ~service:"gateway-1")
  in
  Format.printf "routing-table checkpoint: %d prefixes@."
    (List.length rib_keys);
  Format.printf "@.quickstart OK@."
