(* The four benchmark workloads. Each turns the seed into fixed inputs,
   then runs identical rounds over them. A round is a list of operations
   (one for learn, advertise and fleet; one per descriptor for chaos).
   An operation has a set-up section (timed as [setup_s]) and a timed
   phase, and ends with its output checks, which are not timed.

   The seed only drives input generation: the attribute-group draw of
   [Workload.Prefixes.attr_groups] (learn, advertise), the pick from each
   stratum of the chaos pool via [Chaos.Descriptor.sub_seed], and the
   fleet campaign's [spec.seed]. *)

open Sim
module Deploy = Tensor.Deploy
module App = Tensor.App
module Descriptor = Chaos.Descriptor

let golden_dir = Filename.concat "perfsuite" "golden"

(* One operation's outcome. [setup] and [laps] are the laps (see
   [Meter.lap]) of its set-up and its timed phase; [exact] holds simulated outputs, digests and registry
   counts, which must repeat exactly in every round for one seed;
   [checks] lists the output checks that failed. *)
type op = {
  setup : float array;
  laps : float array;
  exact : (string * string) list;
  checks : string list;
}

(* The routes a workload announces, as (attributes, prefixes) groups in
   origination order. The isolated layer drivers are fed with them. *)
type routes = (Bgp.Attrs.t * Netsim.Addr.prefix list) list

type t = {
  round : Meter.t -> op list;
  warmup : Meter.t -> op list;
      (** Same work as [round], possibly over fewer operations: it only
          has to fault in code and heap before timing starts. *)
  routes : routes Lazy.t;
  min_rounds : int;
  golden : bool;
      (** The default seed's exact outputs are pinned in golden/. Chaos
          has no such file: every run checks its digests against the
          pool. *)
}

(* Registry counts as exact outputs: keys start with "count." so they are
   checked for repetition but never pinned. *)
let count_exact ?(op = "") counts =
  List.map (fun (n, v) -> ("count." ^ op ^ n, string_of_int v)) counts

let failed_checks checks = List.filter_map Fun.id checks

module Attrs_map = Map.Make (struct
  type t = Bgp.Attrs.t

  let compare = Bgp.Attrs.compare
end)

(* Groups routes by attribute set, in attribute order, so every round
   originates the same groups in the same order. *)
let group_by_attrs routes : routes =
  List.fold_left
    (fun m (pfx, attrs) ->
      Attrs_map.update attrs (fun l -> Some (pfx :: Option.value ~default:[] l)) m)
    Attrs_map.empty routes
  |> Attrs_map.bindings
  |> List.map (fun (a, l) -> (a, List.rev l))

(* A reference Loc-RIB holding exactly [routes]: the digest a receiver
   must reproduce. [Rib.digest] covers the prefix set only, so the
   source and attributes chosen here do not matter. *)
let reference_digest (routes : routes) =
  let rib = Bgp.Rib.create () in
  let source =
    {
      Bgp.Rib.key = "reference";
      peer_asn = 65_010;
      peer_addr = Netsim.Addr.of_string "192.0.2.1";
      router_id = Netsim.Addr.of_string "192.0.2.1";
      ebgp = true;
    }
  in
  List.iter
    (fun (attrs, pfxs) ->
      List.iter (fun p -> ignore (Bgp.Rib.update rib source p (Some attrs))) pfxs)
    routes;
  Bgp.Rib.digest rib

(* --- learn and advertise: one TENSOR service, one peer AS ------------- *)

let local_asn = 64_900
let peer_asn = 65_010
let vrf = "v0"
let vip = Netsim.Addr.of_string "203.0.113.10"
let placeholder_hop = Netsim.Addr.of_string "192.0.2.1"

type pair = { dep : Deploy.t; peer : Deploy.peer_as; spk : Bgp.Speaker.t; routes : routes }

let fig6_routes ~seed n =
  let rng = Rng.create seed in
  group_by_attrs
    (Workload.Prefixes.attr_groups rng ~groups:(max 1 (n / 500)) ~next_hop:placeholder_hop n)

(* A round's set-up: the route set from the seed, then the Figure 6
   deployment (replication on, ACKs held, no BFD) and 2 s of simulated
   quiet, so the timed phase starts from a settled session. *)
let pair_setup ~seed ~n id =
  let routes = fig6_routes ~seed n in
  let dep = Deploy.build () in
  let peer = Deploy.add_peer_as dep ~asn:peer_asn "peerAS" in
  ignore (Deploy.peer_expects peer ~vrf ~vip ~local_asn);
  let svc =
    Deploy.deploy_service dep ~id ~local_asn
      [ App.vrf_spec ~vrf ~vip ~peer_addr:peer.Deploy.pa_addr ~peer_asn ~run_bfd:false () ]
  in
  if not (Deploy.wait_established dep svc ()) then Error "session did not establish"
  else begin
    Engine.run_for dep.Deploy.eng (Time.sec 2);
    match App.speaker (Deploy.service_app svc) with
    | Some spk -> Ok { dep; peer; spk; routes }
    | None -> Error "service exposes no speaker"
  end

let with_hop hop (routes : routes) =
  List.map (fun (a, l) -> (Bgp.Attrs.with_next_hop a hop, l)) routes

let originate_all m spk (routes : routes) =
  List.iter (fun (attrs, pfxs) -> Meter.originate m spk ~vrf ~attrs pfxs) routes

let deadline eng = Time.add (Engine.now eng) (Time.minutes 10)
let count_check what got n = if got = n then None else Some (Printf.sprintf "%s %d routes, expected %d" what got n)

let digest_check what digest ref_digest =
  if String.equal digest ref_digest then None
  else Some (Printf.sprintf "%s RIB digest %s, reference %s" what digest ref_digest)

(* learn: the peer AS announces n routes; the timed phase ends when the
   service has applied all of them. *)
let learn_round ~seed ~n ~ref_digest m =
  match Meter.setup m (fun () -> pair_setup ~seed ~n "learn") with
  | Error e, setup -> [ { setup; laps = [||]; exact = []; checks = [ e ] } ]
  | Ok p, setup ->
      let eng = p.dep.Deploy.eng in
      Meter.sample_pending m eng;
      let routes = with_hop p.peer.Deploy.pa_addr p.routes in
      let t0 = Engine.now eng in
      let converged, laps, counts =
        Meter.timed m (fun () ->
            originate_all m p.peer.Deploy.pa_speaker routes;
            Meter.run_until_cond eng ~deadline:(deadline eng) (fun () ->
                Bgp.Speaker.updates_learned p.spk >= n))
      in
      Meter.add_sim m (Time.diff (Engine.now eng) t0);
      let learned = Bgp.Speaker.updates_learned p.spk in
      let digest = Bgp.Rib.digest (Bgp.Speaker.rib p.spk ~vrf) in
      [
        {
          setup;
          laps;
          exact =
            [
              ("learned", string_of_int learned);
              ("rib_digest", digest);
              ("sim_learn_ns", string_of_int (Time.diff (Bgp.Speaker.last_rx_applied p.spk) t0));
            ]
            @ count_exact counts;
          checks =
            failed_checks
              [
                (if converged then None else Some "learn did not converge in 10 min");
                count_check "learned" learned n;
                digest_check "service" digest ref_digest;
              ];
        };
      ]

(* advertise: the service originates n routes; the timed phase ends when
   the last of them is handed to TCP (Figure 6(b)). The check then lets
   the peer finish receiving, untimed. *)
let advertise_round ~seed ~n ~ref_digest m =
  match Meter.setup m (fun () -> pair_setup ~seed ~n "advertise") with
  | Error e, setup -> [ { setup; laps = [||]; exact = []; checks = [ e ] } ]
  | Ok p, setup ->
      let eng = p.dep.Deploy.eng in
      Meter.sample_pending m eng;
      let routes = with_hop vip p.routes in
      let t0 = Engine.now eng in
      let sent_all, laps, counts =
        Meter.timed m (fun () ->
            originate_all m p.spk routes;
            Meter.run_until_cond eng ~deadline:(deadline eng) (fun () ->
                Bgp.Speaker.updates_sent p.spk >= n))
      in
      Meter.add_sim m (Time.diff (Engine.now eng) t0);
      let sim_send = Time.diff (Bgp.Speaker.last_tx_handoff p.spk) t0 in
      let peer_spk = p.peer.Deploy.pa_speaker in
      let received =
        Meter.run_until_cond eng ~deadline:(deadline eng) (fun () ->
            Bgp.Speaker.updates_learned peer_spk >= n)
      in
      let sent = Bgp.Speaker.updates_sent p.spk in
      let digest = Bgp.Rib.digest (Bgp.Speaker.rib peer_spk ~vrf) in
      [
        {
          setup;
          laps;
          exact =
            [
              ("sent", string_of_int sent);
              ("peer_rib_digest", digest);
              ("sim_send_ns", string_of_int sim_send);
            ]
            @ count_exact counts;
          checks =
            failed_checks
              [
                (if sent_all && received then None
                 else Some "advertisement did not complete in 10 min");
                count_check "sent" sent n;
                count_check "peer learned" (Bgp.Speaker.updates_learned peer_spk) n;
                digest_check "peer" digest ref_digest;
              ];
        };
      ]

let fig6_workload round ~seed ~smoke =
  let n = if smoke then 1_000 else 50_000 in
  let routes = fig6_routes ~seed n in
  let ref_digest = reference_digest routes in
  let run m = round ~seed ~n ~ref_digest m in
  { round = run; warmup = run; routes = Lazy.from_val routes; min_rounds = 3; golden = true }

let learn = fig6_workload learn_round
let advertise = fig6_workload advertise_round

(* --- chaos: stock generator descriptors under every checker ----------- *)

(* The stock generator finds a real checker violation in roughly one
   descriptor in 2,500, in every fault class (even with no faults), so a
   seed's fresh descriptors would sometimes fail. The workload instead
   draws from a pool of generator descriptors that passed when pinned
   ([--pin]), stored with their telemetry digests and sorted by run
   time. Runs of [stratum] consecutive pool entries have near-equal
   cost, and the seed picks one descriptor from each: every seed runs a
   different mix of the same total cost. Fifty descriptors per round
   keep a round short enough for a dozen rounds per run. *)
let pool_path = Filename.concat golden_dir "chaos_pool.txt"
let pool_size = 200
let stratum = 4

let load_pool () =
  In_channel.with_open_text pool_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.index_opt l ' ' with
         | None -> invalid_arg ("chaos pool line without a digest: " ^ l)
         | Some i -> (
             let text = String.sub l (i + 1) (String.length l - i - 1) in
             match Descriptor.of_string text with
             | Ok d -> (String.sub l 0 i, d)
             | Error e -> invalid_arg ("chaos pool: " ^ e)))

let pick_strata ~seed pool =
  let rec go k = function
    | [] -> []
    | pool ->
        let here = List.filteri (fun i _ -> i < stratum) pool in
        List.nth here (Descriptor.sub_seed ~seed k mod List.length here)
        :: go (k + 1) (List.filteri (fun i _ -> i >= stratum) pool)
  in
  go 0 pool

(* The runner's deployment for a descriptor, assembled through the same
   public calls [Chaos.Runner] makes (store-fault descriptors get the
   replica, resilient clients and store probing), converged and seeded
   with the descriptor's routes: what a run builds before its fault
   window opens. *)
let chaos_peer_asn i = 65_010 + i
let chaos_vrf i = Printf.sprintf "v%d" i
let chaos_vip i = Netsim.Addr.of_string (Printf.sprintf "203.0.113.%d" (10 + i))
let peer_prefixes i (d : Descriptor.t) =
  Workload.Prefixes.distinct_from ~base:(100_000 * (i + 1)) d.Descriptor.peer_prefixes
let svc_prefixes i (d : Descriptor.t) =
  Workload.Prefixes.distinct_from ~base:(500_000 + (10_000 * i)) d.Descriptor.svc_prefixes

let store_fault (d : Descriptor.t) =
  List.exists
    (function
      | Descriptor.Store_crash _ | Descriptor.Store_partition _ | Descriptor.Store_slow _
      | Descriptor.Region_store_outage _ ->
          true
      | _ -> false)
    d.Descriptor.faults

let permanent_store_crash (d : Descriptor.t) =
  List.exists
    (function Descriptor.Store_crash { dur_ms = 0; _ } -> true | _ -> false)
    d.Descriptor.faults

let chaos_setup m (d : Descriptor.t) =
  let store = store_fault d in
  let dep =
    Deploy.build ~seed:d.Descriptor.seed ~hosts:d.Descriptor.hosts
      ~store_replica:(permanent_store_crash d) ()
  in
  let peers =
    Array.init d.Descriptor.peers (fun i ->
        let pa =
          Deploy.add_peer_as dep ~link_delay:(Time.us d.Descriptor.delay_us)
            ~asn:(chaos_peer_asn i) (Printf.sprintf "peerAS%d" i)
        in
        ignore (Deploy.peer_expects pa ~vrf:(chaos_vrf i) ~vip:(chaos_vip i) ~local_asn);
        pa)
  in
  let svc =
    Deploy.deploy_service dep ~id:"chaos" ~local_asn ~store_resilient:store
      ~degrade_frac:(if store then 0.15 else 0.)
      (Array.to_list
         (Array.mapi
            (fun i (pa : Deploy.peer_as) ->
              App.vrf_spec ~vrf:(chaos_vrf i) ~vip:(chaos_vip i) ~peer_addr:pa.Deploy.pa_addr
                ~peer_asn:(chaos_peer_asn i) ())
            peers))
  in
  if store then Orch.Controller.register_store dep.Deploy.ctrl ~addr:dep.Deploy.store_addr;
  let up = Deploy.wait_established dep svc () in
  let established = Engine.now dep.Deploy.eng in
  Meter.sample_pending m dep.Deploy.eng;
  if up then begin
    Array.iteri
      (fun i (pa : Deploy.peer_as) ->
        Meter.originate m pa.Deploy.pa_speaker ~vrf:(chaos_vrf i) (peer_prefixes i d))
      peers;
    match App.speaker (Deploy.service_app svc) with
    | Some spk -> Array.iteri (fun i _ -> Meter.originate m spk ~vrf:(chaos_vrf i) (svc_prefixes i d)) peers
    | None -> ()
  end;
  established

(* The routes a descriptor announces, as its receivers see them. *)
let chaos_routes descs : routes =
  List.concat
    (List.mapi
       (fun j (d : Descriptor.t) ->
         List.concat
           (List.init d.Descriptor.peers (fun i ->
                [
                  ( Bgp.Attrs.make
                      ~as_path:[ Bgp.Attrs.Seq [ chaos_peer_asn i ] ]
                      ~next_hop:(Netsim.Addr.of_octets 198 18 (j land 255) (i + 1))
                      (),
                    peer_prefixes i d );
                  ( Bgp.Attrs.make ~as_path:[ Bgp.Attrs.Seq [ local_asn ] ] ~next_hop:(chaos_vip i) (),
                    svc_prefixes i d );
                ])))
       descs)

let chaos_op m (i, (pinned, d)) =
  let established, setup = Meter.setup m (fun () -> chaos_setup m d) in
  let o, laps, counts = Meter.timed m (fun () -> Chaos.Runner.run d) in
  (* The runner converges exactly as the set-up did, then runs 10 s of
     route seeding, the fault window and the settle time. *)
  Meter.add_sim m
    (Time.add established (Time.ms (10_000 + d.Descriptor.window_ms + d.Descriptor.settle_ms)));
  let key = Printf.sprintf "run.%03d" i in
  {
    setup;
    laps;
    exact = (key ^ ".digest", o.Chaos.Runner.digest) :: count_exact ~op:(key ^ ".") counts;
    checks =
      failed_checks
        [
          (if Chaos.Runner.ok o then None
           else Some (Printf.sprintf "%s failed: %s" key (Chaos.Runner.summary o)));
          (if String.equal o.Chaos.Runner.digest pinned then None
           else Some (Printf.sprintf "%s digest %s, pool has %s" key o.Chaos.Runner.digest pinned));
        ];
  }

let chaos ~seed ~smoke =
  let pool = load_pool () in
  let pool = if smoke then List.filteri (fun i _ -> i < 3 * stratum) pool else pool in
  let indexed = List.mapi (fun i e -> (i, e)) (pick_strata ~seed pool) in
  {
    round = (fun m -> List.map (chaos_op m) indexed);
    warmup = (fun m -> List.map (chaos_op m) (List.filteri (fun i _ -> i < 10) indexed));
    routes = lazy (chaos_routes (List.map (fun (_, (_, d)) -> d) indexed));
    min_rounds = 2;
    golden = false;
  }

(* Screens the stock generator from the default seed's sub-seeds, keeps
   the first [pool_size] descriptors that pass every checker, and writes
   them with their digests, sorted by the fastest of five runs of each
   (interleaved, so a slow stretch of the host hits all of them alike). *)
let pin_pool () =
  let rec screen i kept acc =
    if kept = pool_size then List.rev acc
    else
      let d = Descriptor.generate ~seed:(Descriptor.sub_seed ~seed:1 i) in
      let o = Chaos.Runner.run d in
      let round_trips =
        match Descriptor.of_string (Descriptor.to_string d) with
        | Ok d' -> Descriptor.equal d d'
        | Error _ -> false
      in
      if Chaos.Runner.ok o && round_trips then screen (i + 1) (kept + 1) ((o.Chaos.Runner.digest, d) :: acc)
      else screen (i + 1) kept acc
  in
  let pool = Array.of_list (screen 0 0 []) in
  let best = Array.make (Array.length pool) infinity in
  for _ = 1 to 5 do
    Array.iteri
      (fun i (_, d) ->
        let t0 = Meter.now () in
        ignore (Chaos.Runner.run d);
        best.(i) <- Float.min best.(i) (Meter.now () -. t0))
      pool
  done;
  let order = List.sort (fun i j -> Float.compare best.(i) best.(j)) (List.init (Array.length pool) Fun.id) in
  Out_channel.with_open_text pool_path (fun oc ->
      List.iter
        (fun i ->
          let digest, d = pool.(i) in
          Printf.fprintf oc "%s %s\n" digest (Descriptor.to_string d))
        order)

(* --- fleet: a correlated campaign over a multi-region fleet ----------- *)

let fleet_campaign = "host_kill@5000,region_store_outage@20000+8000,rolling_upgrade@40000:8"

let fleet_spec ~seed ~smoke =
  let faults =
    match Descriptor.faults_of_string fleet_campaign with
    | Ok fs -> fs
    | Error e -> invalid_arg ("fleet campaign: " ^ e)
  in
  {
    Fleet.Campaign.default_spec with
    Fleet.Campaign.hosts = (if smoke then 8 else 16);
    regions = (if smoke then 2 else 4);
    instances = (if smoke then 8 else 60);
    seed;
    faults;
  }

(* The fleet's own set-up path, in the campaign's order: build, converge,
   seed routes. *)
let fleet_setup m (spec : Fleet.Campaign.spec) =
  let topo =
    Fleet.Topology.build ~seed:spec.Fleet.Campaign.seed ~hosts:spec.Fleet.Campaign.hosts
      ~regions:spec.Fleet.Campaign.regions ~instances:spec.Fleet.Campaign.instances ()
  in
  let up = Fleet.Topology.wait_all_established topo in
  Meter.sample_pending m topo.Fleet.Topology.dep.Deploy.eng;
  if up then
    Meter.wrap_originate m
      ~routes:(4 * Array.length topo.Fleet.Topology.instances)
      (fun () -> Fleet.Topology.seed_routes topo)

(* The routes [Fleet.Topology.seed_routes] announces: two per peer AS and
   two per instance. *)
let fleet_routes (spec : Fleet.Campaign.spec) : routes =
  let n = Fleet.Topology.normalize_instances spec.Fleet.Campaign.instances in
  List.concat
    (List.init n (fun i ->
         [
           ( Bgp.Attrs.make
               ~as_path:[ Bgp.Attrs.Seq [ 65_000 + i ] ]
               ~next_hop:(Netsim.Addr.of_octets 198 19 (i / 250) ((i mod 250) + 1))
               (),
             Workload.Prefixes.distinct_from ~base:(1_000_000 + (1_000 * i)) 2 );
           ( Bgp.Attrs.make
               ~as_path:[ Bgp.Attrs.Seq [ Fleet.Topology.local_asn ] ]
               ~next_hop:(Netsim.Addr.of_octets 198 20 (i / 250) ((i mod 250) + 1))
               (),
             Workload.Prefixes.distinct_from ~base:(5_000_000 + (1_000 * i)) 2 );
         ]))

let fleet_op m spec =
  let (), setup = Meter.setup m (fun () -> fleet_setup m spec) in
  let o, laps, counts = Meter.timed m (fun () -> Fleet.Campaign.run spec) in
  let s = o.Fleet.Campaign.spec in
  Meter.add_sim m
    (Time.add
       (Time.of_sec_f o.Fleet.Campaign.convergence_s)
       (Time.ms (5_000 + s.Fleet.Campaign.window_ms + s.Fleet.Campaign.settle_ms)));
  {
    setup;
    laps;
    exact =
      [ ("digest", o.Fleet.Campaign.digest); ("events", string_of_int o.Fleet.Campaign.events) ]
      @ count_exact counts;
    checks =
      (if Fleet.Campaign.ok o then [] else [ "campaign failed: " ^ Fleet.Campaign.summary o ]);
  }

let fleet ~seed ~smoke =
  let spec = fleet_spec ~seed ~smoke in
  let run m = [ fleet_op m spec ] in
  { round = run; warmup = run; routes = lazy (fleet_routes spec); min_rounds = 3; golden = true }

let all = [ ("learn", learn); ("advertise", advertise); ("chaos", chaos); ("fleet", fleet) ]
