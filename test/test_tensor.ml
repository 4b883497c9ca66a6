(* End-to-end tests for TENSOR: key codecs, the replication machinery's
   safety invariant (no ACK escapes before its message is durable), NSR
   migration across all Table 1 failure classes with zero link downtime,
   storage trimming, and the ablations. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pfx s = Addr.prefix_of_string s
let vip1 = Addr.of_string "203.0.113.10"

(* --- Keys ------------------------------------------------------------------ *)

let sample_meta =
  {
    Tensor.Keys.epoch = 0;
    vrf = "v0";
    local_addr = vip1;
    local_port = 49152;
    peer_addr = Addr.of_string "198.51.100.7";
    peer_port = 179;
    local_asn = 64900;
    hold_time = 90;
    as4 = true;
    iss = 123456;
    irs = 654321;
    mss = 1460;
    rcv_wnd = 400_000;
    peer_open_raw =
      Bgp.Msg.encode
        (Bgp.Msg.Open
           {
             version = 4;
             asn = 65010;
             hold_time = 90;
             router_id = Addr.of_string "9.9.9.9";
             capabilities = [ Bgp.Msg.Cap_route_refresh ];
           });
    peer_supports_gr = true;
    peer_gr_restart_time = 120;
  }

let test_keys_meta_roundtrip () =
  match Tensor.Keys.decode_meta (Tensor.Keys.encode_meta sample_meta) with
  | Ok m -> checkb "meta roundtrip" true (m = sample_meta)
  | Error e -> Alcotest.failf "meta decode: %s" e

let test_keys_in_record_roundtrip () =
  let raw = Bgp.Msg.encode Bgp.Msg.Keepalive in
  match
    Tensor.Keys.decode_in_record (Tensor.Keys.encode_in_record ~ack:999 ~raw)
  with
  | Ok (ack, raw') -> checkb "in record" true (ack = 999 && raw' = raw)
  | Error e -> Alcotest.failf "in record decode: %s" e

let test_keys_rib_roundtrip () =
  let src =
    {
      Bgp.Rib.key = "v0/1.2.3.4";
      peer_asn = 65010;
      peer_addr = Addr.of_string "1.2.3.4";
      router_id = Addr.of_string "9.9.9.9";
      ebgp = true;
    }
  in
  let attrs =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 65010; 7018 ] ]
      ~med:5
      ~communities:[ (65010, 300) ]
      ~next_hop:(Addr.of_string "1.2.3.4") ()
  in
  let p = pfx "100.1.2.0/24" in
  match
    Tensor.Keys.decode_rib_entry (Tensor.Keys.rib_decoder ())
      (Tensor.Keys.encode_rib_entry_with (Tensor.Keys.rib_encoder ()) src p attrs)
  with
  | Ok (src', p', attrs') ->
      checkb "rib roundtrip" true
        (src' = src && Addr.equal_prefix p p' && Bgp.Attrs.equal attrs attrs')
  | Error e -> Alcotest.failf "rib decode: %s" e

let test_keys_parsers () =
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  checkb "in key parse" true
    (Tensor.Keys.seq_of_in_key cid (Tensor.Keys.in_key cid 42) = Some 42);
  checkb "out key parse" true
    (Tensor.Keys.offset_of_out_key cid (Tensor.Keys.out_key cid 1234) = Some 1234);
  let rk = Tensor.Keys.rib_key ~service:"svc1" ~vrf:"v0" (pfx "10.0.0.0/8") in
  match Tensor.Keys.vrf_prefix_of_rib_key ~service:"svc1" rk with
  | Some (vrf, p) ->
      checkb "rib key parse" true
        (vrf = "v0" && Addr.equal_prefix p (pfx "10.0.0.0/8"))
  | None -> Alcotest.fail "rib key parse"

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex/unhex roundtrip" ~count:200 QCheck.string
    (fun s -> Tensor.Keys.unhex (Tensor.Keys.hex s) = Ok s)

let prop_meta_roundtrip =
  QCheck.Test.make ~name:"meta roundtrip with arbitrary numbers" ~count:100
    QCheck.(quad (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 65535) bool)
    (fun (iss, irs, port, gr) ->
      let m =
        { sample_meta with Tensor.Keys.iss; irs; local_port = port;
          peer_supports_gr = gr }
      in
      Tensor.Keys.decode_meta (Tensor.Keys.encode_meta m) = Ok m)

(* --- Codec byte-equality oracle ---------------------------------------------

   The store's cost model charges per value byte and recovery decodes
   what earlier versions wrote, so every key and record must stay
   byte-identical to the original Printf-based formatting. These are
   those original implementations, kept as the reference. *)

module Ref = struct
  let addr_to_string a =
    let t = Addr.to_int a in
    Printf.sprintf "%d.%d.%d.%d"
      ((t lsr 24) land 0xFF)
      ((t lsr 16) land 0xFF)
      ((t lsr 8) land 0xFF)
      (t land 0xFF)

  let prefix_to_string (p : Addr.prefix) =
    Printf.sprintf "%s/%d" (addr_to_string p.Addr.base) p.Addr.len

  let hex s =
    let b = Buffer.create (2 * String.length s) in
    String.iter
      (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c)))
      s;
    Buffer.contents b

  let epoch_cid cid epoch =
    if epoch = 0 then cid else Printf.sprintf "%s@%d" cid epoch

  let encode_in_record ~ack ~raw = string_of_int ack ^ ":" ^ raw

  let in_key cid seq = Printf.sprintf "in|%s|%012d" cid seq
  let out_key cid off = Printf.sprintf "out|%s|%012d" cid off

  let rib_key ~service ~vrf prefix =
    Printf.sprintf "rib|%s|%s|%s" service vrf (prefix_to_string prefix)

  let encode_rib_entry (src : Bgp.Rib.source) prefix attrs =
    let update =
      Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }
    in
    String.concat ";"
      [
        "sk=" ^ src.Bgp.Rib.key;
        "pasn=" ^ string_of_int src.Bgp.Rib.peer_asn;
        "paddr=" ^ addr_to_string src.Bgp.Rib.peer_addr;
        "rid=" ^ addr_to_string src.Bgp.Rib.router_id;
        "ebgp=" ^ (if src.Bgp.Rib.ebgp then "1" else "0");
        "u=" ^ hex (Bgp.Msg.encode update);
      ]
end

let gen_addr = QCheck.Gen.(map Addr.of_int (int_bound 0xFFFFFFFF))

let gen_prefix =
  QCheck.Gen.(map2 (fun a len -> Addr.prefix a len) gen_addr (int_bound 32))

(* Session keys look like "v0/10.0.0.2"; the record's field syntax has
   no escaping, so a key never contains ';'. *)
let gen_source_key =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneof
           [ char_range 'a' 'z'; char_range '0' '9'; oneofl [ '/'; '.'; '|'; '-' ] ])
      (int_bound 24))

let gen_source =
  QCheck.Gen.(
    map
      (fun (key, peer_asn, (peer_addr, router_id), ebgp) ->
        { Bgp.Rib.key; peer_asn; peer_addr; router_id; ebgp })
      (quad gen_source_key (int_bound 0xFFFFFFFF) (pair gen_addr gen_addr) bool))

let gen_u16 = QCheck.Gen.int_bound 0xFFFF
let gen_u32 = QCheck.Gen.int_bound 0xFFFFFFFF

let gen_attrs =
  QCheck.Gen.(
    let segment =
      map2
        (fun set asns -> if set then Bgp.Attrs.Set asns else Bgp.Attrs.Seq asns)
        bool
        (list_size (int_range 1 8) gen_u32)
    in
    map
      (fun ((origin, as_path, next_hop), (med, local_pref), (atomic, communities)) ->
        Bgp.Attrs.make ~origin ~as_path ?med ?local_pref
          ~atomic_aggregate:atomic ~communities ~next_hop ())
      (triple
         (triple
            (oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ])
            (list_size (int_bound 6) segment)
            gen_addr)
         (pair (opt gen_u32) (opt gen_u32))
         (pair bool (list_size (int_bound 12) (pair gen_u16 gen_u16)))))

let arb_route =
  QCheck.make
    ~print:(fun (src, p, a) ->
      Format.asprintf "%s %s %a" src.Bgp.Rib.key (Ref.prefix_to_string p)
        Bgp.Attrs.pp a)
    QCheck.Gen.(triple gen_source gen_prefix gen_attrs)

let prop_codec_matches_printf =
  QCheck.Test.make ~name:"keys and records byte-equal the Printf originals"
    ~count:300 arb_route (fun (src, p, attrs) ->
      let service = src.Bgp.Rib.key and vrf = "v0" in
      String.equal (Addr.to_string p.Addr.base) (Ref.addr_to_string p.Addr.base)
      && String.equal (Addr.prefix_to_string p) (Ref.prefix_to_string p)
      && String.equal
           (Tensor.Keys.rib_key ~service ~vrf p)
           (Ref.rib_key ~service ~vrf p)
      && String.equal
           (Tensor.Keys.encode_rib_entry src p attrs)
           (Ref.encode_rib_entry src p attrs))

let prop_hex_matches_printf =
  QCheck.Test.make ~name:"hex byte-equals the Printf original" ~count:200
    QCheck.string (fun s -> String.equal (Tensor.Keys.hex s) (Ref.hex s))

let prop_stream_keys_match_printf =
  QCheck.Test.make ~name:"in/out/epoch keys byte-equal the Printf originals"
    ~count:300
    QCheck.(
      triple printable_string
        (make ~print:string_of_int
           Gen.(oneof [ small_signed_int; int_bound 10_000_000_000_000; int ]))
        small_nat)
    (fun (cid, n, epoch) ->
      String.equal (Tensor.Keys.in_key cid n) (Ref.in_key cid n)
      && String.equal (Tensor.Keys.out_key cid n) (Ref.out_key cid n)
      && String.equal
           (Tensor.Keys.epoch_cid cid epoch)
           (Ref.epoch_cid cid epoch))

let test_keys_padding_edges () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "in_key %d" n) (Ref.in_key "c" n)
        (Tensor.Keys.in_key "c" n))
    [ 0; 1; -1; 999_999_999_999; 1_000_000_000_000; -99_999_999_999;
      -100_000_000_000; max_int; min_int ]

(* --- Cached record encoder ----------------------------------------------------- *)

let roundtrips dec (src, p, attrs) record =
  match Tensor.Keys.decode_rib_entry dec record with
  | Ok (src', p', attrs') ->
      src' = src && Addr.equal_prefix p p' && Bgp.Attrs.equal attrs attrs'
  | Error _ -> false

(* A physically distinct copy: structurally equal, so the record must
   not change, but the encoder's physical hit test must miss. *)
let copy_attrs (a : Bgp.Attrs.t) = { a with Bgp.Attrs.med = a.Bgp.Attrs.med }

let prop_cached_encoder =
  QCheck.Test.make ~name:"cached encoder equals encode_rib_entry" ~count:100
    QCheck.(
      make
        Gen.(
          quad (pair gen_source gen_source) (pair gen_attrs gen_attrs)
            (list_size (int_range 1 40)
               (quad bool bool bool gen_prefix))
            unit))
    (fun ((s1, s2), (a1, a2), steps, ()) ->
      (* One encoder fed a mix of repeats (hits), alternating sources and
         attribute sets, and equal-but-distinct attribute copies. *)
      let enc = Tensor.Keys.rib_encoder () in
      let dec = Tensor.Keys.rib_decoder () in
      List.for_all
        (fun (second_src, second_attrs, copy, p) ->
          let src = if second_src then s2 else s1 in
          let attrs = if second_attrs then a2 else a1 in
          let attrs = if copy then copy_attrs attrs else attrs in
          let record = Tensor.Keys.encode_rib_entry_with enc src p attrs in
          let flat = Ref.encode_rib_entry src p attrs in
          String.equal (Store.Value.to_string record) flat
          && String.equal (Tensor.Keys.encode_rib_entry src p attrs) flat
          && roundtrips dec (src, p, attrs) record)
        steps)

let test_cached_encoder_invalidation () =
  let src n =
    {
      Bgp.Rib.key = Printf.sprintf "v0/10.0.0.%d" n;
      peer_asn = 65000 + n;
      peer_addr = Addr.of_octets 10 0 0 n;
      router_id = Addr.of_octets 9 9 9 n;
      ebgp = n mod 2 = 0;
    }
  in
  let s1 = src 1 and s2 = src 2 in
  let a =
    Bgp.Attrs.make ~as_path:[ Bgp.Attrs.Seq [ 65001; 7018 ] ] ~med:5
      ~next_hop:(Addr.of_string "10.0.0.1") ()
  in
  let a' = copy_attrs a in
  checkb "copy is physically distinct" true (a != a' && Bgp.Attrs.equal a a');
  let b = Bgp.Attrs.with_med a (Some 6) in
  let enc = Tensor.Keys.rib_encoder () in
  let dec = Tensor.Keys.rib_decoder () in
  List.iteri
    (fun i (src, attrs, p) ->
      let p = pfx p in
      let got = Tensor.Keys.encode_rib_entry_with enc src p attrs in
      Alcotest.(check string)
        (Printf.sprintf "step %d" i)
        (Ref.encode_rib_entry src p attrs)
        (Store.Value.to_string got);
      checkb (Printf.sprintf "step %d roundtrips" i) true
        (roundtrips dec (src, p, attrs) got))
    [
      (s1, a, "100.0.0.0/24");
      (s1, a, "100.0.1.0/24") (* hit *);
      (s1, a, "0.0.0.0/0") (* hit, shorter NLRI *);
      (s1, a, "100.1.2.3/32") (* hit, longer NLRI *);
      (s2, a, "100.0.2.0/24") (* source changed *);
      (s1, a, "100.0.3.0/24") (* and back *);
      (s1, a', "100.0.4.0/24") (* equal attributes, distinct value *);
      (s1, b, "100.0.5.0/24") (* different attributes *);
      (s2, a', "100.0.6.0/22");
      (s2, a, "100.0.7.0/25");
    ]

(* --- Store reference ---------------------------------------------------------

   The store as it was before values shared heads: flat string values,
   list-of-pairs write requests. Kept verbatim as the reference the
   shared-head store must match in every reply byte, modelled request
   and response size, stored byte count and reply instant. *)

module Ref_store = struct
  [@@@warning "-32"] (* verbatim: not every function is driven *)

  open Sim
  open Netsim

  type cost_model = {
    chunk : int;
    read_chunk_cost : Time.span;
    read_record_cost : Time.span;
    read_byte_ns : float;
    write_chunk_cost : Time.span;
    write_record_cost : Time.span;
    write_byte_ns : float;
  }

  (* Calibrated against Figure 5(b) with its 90 B keys and 4 KB values:
     one write ~1 ms, one read <0.5 ms, 10K writes ~500 ms, 10K reads
     ~200 ms. The per-byte components make small records (routing-table
     checkpoint entries) proportionally cheap, as they are on real Redis. *)
  let default_cost_model =
    {
      chunk = 128;
      read_chunk_cost = Time.us 240;
      read_record_cost = Time.us 2;
      read_byte_ns = 3.8;
      write_chunk_cost = Time.us 600;
      write_record_cost = Time.us 3;
      write_byte_ns = 10.0;
    }

  let free_cost_model =
    {
      chunk = 128;
      read_chunk_cost = 0;
      read_record_cost = 0;
      read_byte_ns = 0.0;
      write_chunk_cost = 0;
      write_record_cost = 0;
      write_byte_ns = 0.0;
    }

  type Rpc.body +=
    | Req_set of (string * string) list
    | Req_get of string list
    | Req_del of string list
    | Req_scan of string
    | Req_idem of { client : string; seq : int; inner : Rpc.body }
    | Resp_set_ok
    | Resp_values of (string * string option) list
    | Resp_del_count of int
    | Resp_pairs of (string * string) list

  module Server = struct
    type t = {
      snode : Node.t;
      eng : Engine.t;
      cost : cost_model;
      table : (string, string) Hashtbl.t;
      mutable bytes : int;
      mutable busy_until : Time.t;
      mutable replica : t option;
      mutable alive : bool;
      mutable cost_factor : float;
      (* Per-client idempotency window: last seq seen and, once the
         handler replied, the cached response a retransmission replays.
         [None] marks the op as still in flight so a duplicate arriving
         mid-processing is dropped rather than applied twice. One slot
         per client suffices: resilient clients keep at most one request
         outstanding. *)
      idem : (string, int * (Rpc.body * int) option) Hashtbl.t;
    }

    let node t = t.snode

    (* Serving requires both the process (RAM) and the node (network) up:
       [Node.set_up false] models a partition — contents survive — while
       [crash] models the process dying with its no-persistence RAM. *)
    let up t = t.alive && Node.is_up t.snode

    let addr t =
      match Node.addresses t.snode with
      | a :: _ -> a
      | [] -> invalid_arg "Store.Server: node has no address"

    let records t = Hashtbl.length t.table
    let stored_bytes t = t.bytes
    let peek t key = Hashtbl.find_opt t.table key

    let keys_with_prefix t prefix =
      Det.keys_where ~compare:String.compare ~keep:(String.starts_with ~prefix) t.table

    (* Serialize request processing through the server's modelled CPU, like
       the TCP stack does. *)
    let processing_finish t cost =
      let now = Engine.now t.eng in
      let start = if t.busy_until > now then t.busy_until else now in
      let finish = Time.add start cost in
      t.busy_until <- finish;
      finish

    let op_cost t ~writes ~bytes n =
      if n = 0 then 0
      else
        let chunks = (n + t.cost.chunk - 1) / t.cost.chunk in
        let byte_ns = if writes then t.cost.write_byte_ns else t.cost.read_byte_ns in
        let byte_cost = int_of_float (float_of_int bytes *. byte_ns) in
        let raw =
          if writes then
            (chunks * t.cost.write_chunk_cost)
            + (n * t.cost.write_record_cost)
            + byte_cost
          else
            (chunks * t.cost.read_chunk_cost)
            + (n * t.cost.read_record_cost)
            + byte_cost
        in
        (* Exact for factor 1.0: every span fits a float mantissa. *)
        int_of_float (float_of_int raw *. t.cost_factor)

    let apply_set t pairs =
      List.iter
        (fun (k, v) ->
          (match Hashtbl.find_opt t.table k with
          | Some old -> t.bytes <- t.bytes - String.length k - String.length old
          | None -> ());
          Hashtbl.replace t.table k v;
          t.bytes <- t.bytes + String.length k + String.length v)
        pairs

    let apply_del t keys =
      List.fold_left
        (fun acc k ->
          match Hashtbl.find_opt t.table k with
          | Some v ->
              Hashtbl.remove t.table k;
              t.bytes <- t.bytes - String.length k - String.length v;
              acc + 1
          | None -> acc)
        0 keys

    let payload_bytes_of_pairs pairs =
      List.fold_left
        (fun acc (k, v) -> acc + String.length k + String.length v)
        0 pairs

    (* Writes go to the replica synchronously: the reply is withheld until
       the replica has confirmed (same processing-cost model there). A
       replica found dead — crashed or partitioned — is detached and the
       primary acknowledges alone (degraded redundancy, like Redis dropping
       a sync replica), so a replica failure cannot wedge the write path. *)
    let replicate t op k =
      match t.replica with
      | None -> k ()
      | Some r when not (up r) ->
          t.replica <- None;
          k ()
      | Some r ->
          let cost, apply =
            match op with
            | `Set pairs ->
                ( op_cost r ~writes:true
                    ~bytes:(payload_bytes_of_pairs pairs)
                    (List.length pairs),
                  fun () -> apply_set r pairs )
            | `Del keys ->
                ( op_cost r ~writes:true ~bytes:0 (List.length keys),
                  fun () -> ignore (apply_del r keys) )
          in
          let finish = processing_finish r cost in
          ignore
            (Engine.schedule_at r.eng ~label:"store.replicate" finish (fun () ->
                 if up r then begin
                   apply ();
                   k ()
                 end
                 else begin
                   t.replica <- None;
                   k ()
                 end))

    let rec handle t ~src body ~reply:(reply : ?size:int -> Rpc.body -> unit) =
      match body with
      | Req_idem { client; seq; inner } -> (
          match Hashtbl.find_opt t.idem client with
          | Some (s, _) when seq < s -> () (* stale retransmission *)
          | Some (s, Some (rbody, rsize)) when seq = s ->
              (* Duplicate of an already-answered request: replay the
                 cached response without re-applying. *)
              reply ~size:rsize rbody
          | Some (s, None) when seq = s ->
              () (* duplicate while the original is still processing *)
          | _ ->
              Hashtbl.replace t.idem client (seq, None);
              handle t ~src inner
                ~reply:(fun ?(size = 128) rbody ->
                  Hashtbl.replace t.idem client (seq, Some (rbody, size));
                  reply ~size rbody))
      | Req_set pairs ->
          let finish =
            processing_finish t
              (op_cost t ~writes:true
                 ~bytes:(payload_bytes_of_pairs pairs)
                 (List.length pairs))
          in
          ignore
            (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
                 if up t then begin
                   apply_set t pairs;
                   replicate t (`Set pairs) (fun () -> reply ~size:64 Resp_set_ok)
                 end))
      | Req_get keys ->
          let bytes =
            List.fold_left
              (fun acc k ->
                acc
                + match Hashtbl.find_opt t.table k with
                  | Some v -> String.length v
                  | None -> 0)
              0 keys
          in
          let finish =
            processing_finish t (op_cost t ~writes:false ~bytes (List.length keys))
          in
          ignore
            (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
                 if up t then begin
                   let values =
                     List.map (fun k -> (k, Hashtbl.find_opt t.table k)) keys
                   in
                   let size =
                     64
                     + List.fold_left
                         (fun acc (k, v) ->
                           acc + String.length k
                           + match v with Some v -> String.length v | None -> 0)
                         0 values
                   in
                   reply ~size (Resp_values values)
                 end))
      | Req_del keys ->
          let finish =
            processing_finish t (op_cost t ~writes:true ~bytes:0 (List.length keys))
          in
          ignore
            (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
                 if up t then begin
                   let n = apply_del t keys in
                   replicate t (`Del keys) (fun () ->
                       reply ~size:64 (Resp_del_count n))
                 end))
      | Req_scan prefix ->
          let keys = keys_with_prefix t prefix in
          let bytes =
            List.fold_left
              (fun acc k ->
                acc
                + match Hashtbl.find_opt t.table k with
                  | Some v -> String.length v
                  | None -> 0)
              0 keys
          in
          let finish =
            processing_finish t
              (op_cost t ~writes:false ~bytes (max 1 (List.length keys)))
          in
          ignore
            (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
                 if up t then begin
                   let pairs =
                     List.filter_map
                       (fun k ->
                         match Hashtbl.find_opt t.table k with
                         | Some v -> Some (k, v)
                         | None -> None)
                       keys
                   in
                   reply ~size:(64 + payload_bytes_of_pairs pairs) (Resp_pairs pairs)
                 end))
      | _ -> ()

    let create ?(cost = default_cost_model) node =
      let t =
        {
          snode = node;
          eng = Node.engine node;
          cost;
          table = Hashtbl.create 1024;
          bytes = 0;
          busy_until = Time.zero;
          replica = None;
          alive = true;
          cost_factor = 1.0;
          idem = Hashtbl.create 16;
        }
      in
      Rpc.serve (Rpc.endpoint node) ~service:"kv" (handle t);
      (* Process-liveness probe: answered only while alive, so a crashed
         store reads as unreachable even though its node still forwards. *)
      Rpc.serve (Rpc.endpoint node) ~service:"kv_health"
        (fun ~src:_ _body ~reply -> if t.alive then reply Rpc.Pong);
      t

    let attach_replica primary replica =
      if primary.snode == replica.snode then
        invalid_arg "Store.Server.attach_replica: replica on the same node";
      primary.replica <- Some replica

    (* The paper's Redis runs without persistence (§4.1): a process crash
       loses every record. The node stays up — only the store process
       died — so requests still arrive and are silently dropped until
       [restart], exactly like a connection-refused backend behind an
       engineered-loss-free channel. *)
    let crash t =
      if t.alive then begin
        t.alive <- false;
        Hashtbl.reset t.table;
        t.bytes <- 0;
        Hashtbl.reset t.idem;
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Store_crashed { node = Node.name t.snode })
      end

    let restart t =
      if not t.alive then begin
        t.alive <- true;
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Store_restarted { node = Node.name t.snode })
      end

    let promote t =
      t.replica <- None;
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Store_promoted { node = Node.name t.snode })

    let set_cost_factor t f =
      if f < 1.0 then invalid_arg "Store.Server.set_cost_factor: factor < 1";
      t.cost_factor <- f
  end

  module Client = struct
    (* Resilient state, present only when the client opted into retry or
       failover. Ops run strictly one at a time through [queue]: an op's
       retransmissions and failover all complete (or fail) before the next
       op is sent, which preserves per-client FIFO ordering even though a
       retransmission is a fresh RPC. Each op carries an idempotency id
       [(name, seq)] the server deduplicates on. *)
    type resilient = {
      name : string;
      mutable replica : Addr.t option; (* failover target, consumed once *)
      mutable failed : bool; (* true once failover has happened *)
      mutable seq : int;
      mutable queue : (unit -> unit) list; (* pending ops, FIFO order *)
      mutable inflight : bool;
    }

    type t = {
      ep : Rpc.endpoint;
      mutable server : Addr.t;
      resilient : resilient option;
    }

    let create ?replica ?(resilient = false) node ~server =
      let ep = Rpc.endpoint node in
      if replica = None && not resilient then { ep; server; resilient = None }
      else
        (* The idempotency-id namespace: unique per node within a run,
           deterministic across replays (the endpoint's counter dies with
           its node). *)
        let name =
          Printf.sprintf "%s#%d" (Node.name node) (Rpc.fresh_client_id ep)
        in
        {
          ep;
          server;
          resilient =
            Some
              {
                name;
                replica;
                failed = false;
                seq = 0;
                queue = [];
                inflight = false;
              };
        }

    let failed_over t =
      match t.resilient with Some r -> r.failed | None -> false

    let request_size_of_pairs pairs =
      64
      + List.fold_left
          (fun acc (k, v) -> acc + String.length k + String.length v)
          0 pairs

    let start_next r =
      match r.queue with
      | [] -> ()
      | job :: rest ->
          r.queue <- rest;
          r.inflight <- true;
          job ()

    let run_op t r ~size ~timeout inner k_done =
      r.seq <- r.seq + 1;
      let seq = r.seq in
      let body = Req_idem { client = r.name; seq; inner } in
      let rec attempt_target () =
        Rpc.call t.ep ~timeout ~size ~retry:true ~dst:t.server ~service:"kv"
          body (function
          | Ok resp -> k_done (Ok resp)
          | Error err -> (
              match r.replica with
              | Some addr ->
                  (* Primary declared dead after a full retry budget: fail
                     over. The same idempotency id is reused, so a write
                     the primary applied but never acknowledged is not
                     double-applied if it raced the failover. *)
                  r.replica <- None;
                  r.failed <- true;
                  t.server <- addr;
                  Telemetry.Bus.emit
                    (Node.engine (Rpc.node t.ep))
                    (Telemetry.Event.Store_failover
                       {
                         client = r.name;
                         attempts =
                           (match err with `Exhausted n -> n | `Timeout -> 1);
                       });
                  attempt_target ()
              | None -> k_done (Error `Timeout)))
      in
      attempt_target ()

    let exec t ~size ~timeout inner parse =
      match t.resilient with
      | None ->
          Rpc.call t.ep ~timeout ~size ~dst:t.server ~service:"kv" inner parse
      | Some r ->
          let job () =
            run_op t r ~size ~timeout inner (fun res ->
                r.inflight <- false;
                parse res;
                start_next r)
          in
          r.queue <- r.queue @ [ job ];
          if not r.inflight then start_next r

    let set t ?(timeout = Time.sec 5) pairs k =
      exec t ~size:(request_size_of_pairs pairs) ~timeout (Req_set pairs)
        (function
        | Ok Resp_set_ok -> k (Ok ())
        | Ok _ -> k (Error `Timeout)
        | Error _ -> k (Error `Timeout))

    let get t ?(timeout = Time.sec 5) keys k =
      let size = 64 + List.fold_left (fun a s -> a + String.length s) 0 keys in
      exec t ~size ~timeout (Req_get keys) (function
        | Ok (Resp_values vs) -> k (Ok vs)
        | Ok _ -> k (Error `Timeout)
        | Error _ -> k (Error `Timeout))

    let del t ?(timeout = Time.sec 5) keys k =
      let size = 64 + List.fold_left (fun a s -> a + String.length s) 0 keys in
      exec t ~size ~timeout (Req_del keys) (function
        | Ok (Resp_del_count n) -> k (Ok n)
        | Ok _ -> k (Error `Timeout)
        | Error _ -> k (Error `Timeout))

    let scan t ?(timeout = Time.sec 30) ~prefix k =
      exec t ~size:(64 + String.length prefix) ~timeout (Req_scan prefix)
        (function
        | Ok (Resp_pairs ps) -> k (Ok ps)
        | Ok _ -> k (Error `Timeout)
        | Error _ -> k (Error `Timeout))
  end
end

(* Op scripts against the store and the reference, each on its own
   engine and network: a resilient client with a replica to fail over
   to, ops issued on a jittered schedule so they queue and pipeline,
   crashes, restarts, promotions and partitions that force retries.
   Values are plain strings, in| records, and checkpoint records from
   one shared encoder (so heads are shared across keys and NLRI sizes);
   the reference stores the same records flat, from the reference
   codecs. *)

type vspec = Plain of string | In_rec of int * string | Rib of bool * bool * Addr.prefix

type sop =
  | S_set of (int * vspec) list
  | S_get of int list
  | S_del of int list
  | S_scan of int
  | S_crash
  | S_restart
  | S_promote
  | S_partition of int

let store_keys = Array.init 10 (fun i -> Printf.sprintf "%s|%d" (if i < 5 then "a" else "b") i)
let scan_prefixes = [| "a|"; "b|"; ""; "a|3" |]

let gen_vspec =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun s -> Plain s) (string_size ~gen:printable (int_bound 40)));
        (1, map2 (fun a raw -> In_rec (a, raw)) (int_bound 1_000_000) (string_size (int_bound 60)));
        (4, map3 (fun s a p -> Rib (s, a, p)) bool bool gen_prefix);
      ])

let gen_sop =
  QCheck.Gen.(
    let key = int_bound (Array.length store_keys - 1) in
    frequency
      [
        (6, map (fun l -> S_set l) (list_size (int_range 1 6) (pair key gen_vspec)));
        (3, map (fun l -> S_get l) (list_size (int_range 1 4) key));
        (2, map (fun l -> S_del l) (list_size (int_range 1 3) key));
        (2, map (fun i -> S_scan i) (int_bound (Array.length scan_prefixes - 1)));
        (1, return S_crash);
        (1, return S_restart);
        (1, return S_promote);
        (1, map (fun ms -> S_partition ms) (int_range 50 3000));
      ])

(* What one world exposes to [run_script]; replies are rendered text. *)
type store_world = {
  w_eng : Engine.t;
  w_set : (string * vspec) list -> (string -> unit) -> unit;
  w_get : string list -> (string -> unit) -> unit;
  w_del : string list -> (string -> unit) -> unit;
  w_scan : string -> (string -> unit) -> unit;
  w_crash : unit -> unit;
  w_restart : unit -> unit;
  w_promote : unit -> unit;
  w_db : Node.t;
  w_bytes : unit -> int * int * int * int;
}

let render_get = function
  | Ok vs ->
      String.concat ","
        (List.map (fun (k, v) -> k ^ "=" ^ Option.value ~default:"<none>" v) vs)
  | Error `Timeout -> "timeout"

let world_net () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let app = Network.add_node net "app" in
  let db = Network.add_node net "db" in
  let db2 = Network.add_node net "db2" in
  let l1, _, db_addr = Network.connect net ~delay:(Time.us 100) app db in
  let l2, _, db2_addr = Network.connect net ~delay:(Time.us 150) app db2 in
  (eng, app, db, db2, db_addr, db2_addr, [ l1; l2 ])

let script_src b =
  {
    Bgp.Rib.key = (if b then "v0/10.0.0.2" else "v0/10.0.0.3");
    peer_asn = (if b then 65010 else 4_200_000_000);
    peer_addr = Addr.of_string (if b then "10.0.0.2" else "10.0.0.3");
    router_id = Addr.of_string "9.9.9.9";
    ebgp = b;
  }

let script_srcs = (script_src true, script_src false)

let script_attrs =
  ( Bgp.Attrs.make ~as_path:[ Bgp.Attrs.Seq [ 65010; 7018 ] ] ~med:5
      ~next_hop:(Addr.of_string "10.0.0.2") (),
    Bgp.Attrs.make ~as_path:[ Bgp.Attrs.Seq [ 65010 ]; Bgp.Attrs.Set [ 1; 2; 3 ] ]
      ~communities:[ (65010, 300) ]
      ~next_hop:(Addr.of_string "10.0.0.3") () )

let pick (a, b) first = if first then a else b

let new_world () =
  let eng, app, db, db2, db_addr, db2_addr, links = world_net () in
  let server = Store.Server.create db and replica = Store.Server.create db2 in
  Store.Server.attach_replica server replica;
  let client =
    Store.Client.create ~mode:(Failover db2_addr) app ~server:db_addr
  in
  let enc = Tensor.Keys.rib_encoder () in
  let value = function
    | Plain s -> Store.Value.of_string s
    | In_rec (ack, raw) -> Tensor.Keys.encode_in_record ~ack ~raw
    | Rib (s, a, p) -> Tensor.Keys.encode_rib_entry_with enc (pick script_srcs s) p (pick script_attrs a)
  in
  ( {
      w_eng = eng;
      w_set =
        (fun pairs k ->
          let b = Store.Batch.create (List.length pairs) in
          List.iter (fun (key, v) -> Store.Batch.add b key (value v)) pairs;
          Store.Client.set_batch client b (function
            | Ok () -> k "ok"
            | Error `Timeout -> k "timeout"));
      w_get = (fun keys k -> Store.Client.get client keys (fun r -> k (render_get r)));
      w_del =
        (fun keys k ->
          Store.Client.del client keys (function
            | Ok n -> k (string_of_int n)
            | Error `Timeout -> k "timeout"));
      w_scan =
        (fun prefix k ->
          Store.Client.scan client ~prefix (function
            | Ok ps ->
                k (render_get (Ok (List.map (fun (key, v) -> (key, Some (Store.Value.to_string v))) ps)))
            | Error `Timeout -> k "timeout"));
      w_crash = (fun () -> Store.Server.crash server);
      w_restart = (fun () -> Store.Server.restart server);
      w_promote = (fun () -> Store.Server.promote replica);
      w_db = db;
      w_bytes =
        (fun () ->
          ( Store.Server.stored_bytes server,
            Store.Server.records server,
            Store.Server.stored_bytes replica,
            Store.Server.records replica ));
    },
    links )

let ref_world () =
  let eng, app, db, db2, db_addr, db2_addr, links = world_net () in
  let server = Ref_store.Server.create db and replica = Ref_store.Server.create db2 in
  Ref_store.Server.attach_replica server replica;
  let client = Ref_store.Client.create ~replica:db2_addr app ~server:db_addr in
  let value = function
    | Plain s -> s
    | In_rec (ack, raw) -> Ref.encode_in_record ~ack ~raw
    | Rib (s, a, p) -> Ref.encode_rib_entry (pick script_srcs s) p (pick script_attrs a)
  in
  ( {
      w_eng = eng;
      w_set =
        (fun pairs k ->
          Ref_store.Client.set client
            (List.map (fun (key, v) -> (key, value v)) pairs)
            (function Ok () -> k "ok" | Error `Timeout -> k "timeout"));
      w_get = (fun keys k -> Ref_store.Client.get client keys (fun r -> k (render_get r)));
      w_del =
        (fun keys k ->
          Ref_store.Client.del client keys (function
            | Ok n -> k (string_of_int n)
            | Error `Timeout -> k "timeout"));
      w_scan =
        (fun prefix k ->
          Ref_store.Client.scan client ~prefix (function
            | Ok ps -> k (render_get (Ok (List.map (fun (key, v) -> (key, Some v)) ps)))
            | Error `Timeout -> k "timeout"));
      w_crash = (fun () -> Ref_store.Server.crash server);
      w_restart = (fun () -> Ref_store.Server.restart server);
      w_promote = (fun () -> Ref_store.Server.promote replica);
      w_db = db;
      w_bytes =
        (fun () ->
          ( Ref_store.Server.stored_bytes server,
            Ref_store.Server.records server,
            Ref_store.Server.stored_bytes replica,
            Ref_store.Server.records replica ));
    },
    links )

(* Runs [script] (op, gap in µs before it) and returns everything
   observable: each reply with its instant and the stored bytes then,
   and every packet on both client links with its instant and size. *)
let run_script (w, links) script =
  let log = ref [] in
  let note s = log := s :: !log in
  List.iteri
    (fun i l ->
      Link.tap l (fun _ pkt ->
          note
            (Printf.sprintf "pkt link%d t=%d size=%d" i (Engine.now w.w_eng)
               pkt.Packet.size)))
    links;
  let reply i kind r =
    let pb, pr, rb, rr = w.w_bytes () in
    note
      (Printf.sprintf "op%d %s t=%d -> %s | bytes %d/%d %d/%d" i kind
         (Engine.now w.w_eng) r pb pr rb rr)
  in
  let at = ref 0 in
  List.iteri
    (fun i (op, gap) ->
      at := !at + gap;
      ignore
        (Engine.schedule_at w.w_eng ~label:"test.op" (Time.us !at) (fun () ->
             match op with
             | S_set pairs ->
                 w.w_set (List.map (fun (k, v) -> (store_keys.(k), v)) pairs) (reply i "set")
             | S_get ks -> w.w_get (List.map (Array.get store_keys) ks) (reply i "get")
             | S_del ks -> w.w_del (List.map (Array.get store_keys) ks) (reply i "del")
             | S_scan p -> w.w_scan scan_prefixes.(p) (reply i "scan")
             | S_crash -> w.w_crash ()
             | S_restart -> w.w_restart ()
             | S_promote -> w.w_promote ()
             | S_partition ms ->
                 Node.set_up w.w_db false;
                 ignore
                   (Engine.schedule_after w.w_eng ~label:"test.heal" (Time.ms ms)
                      (fun () -> Node.set_up w.w_db true)))))
    script;
  Engine.run w.w_eng;
  let pb, pr, rb, rr = w.w_bytes () in
  List.rev (Printf.sprintf "final %d/%d %d/%d" pb pr rb rr :: !log)

let prop_store_matches_reference =
  QCheck.Test.make ~name:"shared-head store matches the flat reference" ~count:150
    QCheck.(
      make
        ~print:(fun script -> Printf.sprintf "%d ops" (List.length script))
        Gen.(list_size (int_range 1 30) (pair gen_sop (int_bound 3000))))
    (fun script ->
      let got = run_script (new_world ()) script in
      let want = run_script (ref_world ()) script in
      if got = want then true
      else begin
        let rec first_diff = function
          | g :: gs, w :: ws -> if g = w then first_diff (gs, ws) else (g, w)
          | g :: _, [] -> (g, "<end>")
          | [], w :: _ -> ("<end>", w)
          | [], [] -> ("", "")
        in
        let g, w = first_diff (got, want) in
        QCheck.Test.fail_reportf "got  %s\nwant %s" g w
      end)

let test_unhex_strict () =
  let bad = Error "bad hex" in
  List.iter
    (fun s ->
      checkb (Printf.sprintf "unhex %S rejected" s) true
        (Tensor.Keys.unhex s = bad))
    [ "f_"; "_f"; "0x"; " 1"; "+1"; "-1"; "g0"; "0G"; "ab_c"; "\x00\x00" ];
  checkb "odd length" true (Tensor.Keys.unhex "abc" = Error "odd hex length");
  checkb "empty" true (Tensor.Keys.unhex "" = Ok "");
  checkb "either case" true
    (Tensor.Keys.unhex "00fFaB7e" = Ok "\x00\xff\xab\x7e")

(* --- Full deployment helpers ---------------------------------------------- *)

type world = {
  dep : Tensor.Deploy.t;
  peer : Tensor.Deploy.peer_as;
  peer_handle : Bgp.Speaker.peer;
  svc : Tensor.Deploy.service;
  peer_link : Link.t;
}

let make_world ?(ack_hold = true) ?store_resilient
    ?degrade_frac ?seed () =
  let dep = Tensor.Deploy.build ?seed () in
  let peer = Tensor.Deploy.add_peer_as dep ~asn:65010 "peerAS" in
  let peer_handle =
    Tensor.Deploy.peer_expects peer ~vrf:"v0" ~vip:vip1 ~local_asn:64900
  in
  let svc =
    Tensor.Deploy.deploy_service dep ~ack_hold ?store_resilient
      ?degrade_frac ~id:"svc1" ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v0" ~vip:vip1
          ~peer_addr:peer.Tensor.Deploy.pa_addr ~peer_asn:65010 ();
      ]
  in
  let peer_link =
    match Network.link_between dep.Tensor.Deploy.net dep.Tensor.Deploy.fabric
            peer.Tensor.Deploy.pa_node with
    | Some l -> l
    | None -> Alcotest.fail "no peer link"
  in
  { dep; peer; peer_handle; svc; peer_link }

let eng w = w.dep.Tensor.Deploy.eng

let establish w =
  checkb "service established" true
    (Tensor.Deploy.wait_established w.dep w.svc ());
  Engine.run_for (eng w) (Time.sec 2)

(* Watch the peer's view: session drops and RIB losses both count as
   downtime. *)
let watch_peer_continuity w =
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down w.peer_handle (fun _ -> incr drops);
  drops

let peer_rib w = Bgp.Speaker.rib w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"

(* --- Establishment and propagation ------------------------------------------ *)

let test_deployment_establishes () =
  let w = make_world () in
  establish w;
  checkb "peer side established" true
    (Bgp.Speaker.peer_state w.peer_handle = Bgp.Session.Established)

let test_routes_propagate_both_ways () =
  let w = make_world () in
  establish w;
  (* Peer announces; TENSOR announces. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 100);
  (match Tensor.App.speaker (Tensor.Deploy.service_app w.svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:500_000 50)
  | None -> Alcotest.fail "no speaker");
  Engine.run_for (eng w) (Time.sec 10);
  checki "tensor learned peer routes" 100
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0" - 50);
  checki "peer learned tensor routes" 50 (Bgp.Rib.size (peer_rib w) - 100)

let test_meta_written_to_store () =
  let w = make_world () in
  establish w;
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  checkb "meta record exists" true
    (Store.Server.peek w.dep.Tensor.Deploy.store_server
       (Tensor.Keys.meta_key cid)
    <> None);
  checkb "bfd record exists" true
    (Store.Server.peek w.dep.Tensor.Deploy.store_server
       (Tensor.Keys.bfd_key cid)
    <> None)

(* --- Degraded-store survival ------------------------------------------------- *)

(* A store partition outlasting the degrade deadline, then healing. The
   re-arm rewrites the meta record the fresh bring-up wrote, changed only
   in its epoch, and its ack / outtrim cursors are the connection's
   received and sent stream positions at the instant it completes. *)
let test_rearm_rewrites_meta_and_cursors () =
  let w = make_world ~store_resilient:true ~degrade_frac:0.1 () in
  establish w;
  let drops = watch_peer_continuity w in
  let store = w.dep.Tensor.Deploy.store_server in
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  let read_meta () =
    match Store.Server.peek store (Tensor.Keys.meta_key cid) with
    | Some v -> (
        match Tensor.Keys.decode_meta v with
        | Ok m -> m
        | Error e -> Alcotest.fail e)
    | None -> Alcotest.fail "no meta record"
  in
  let cursor key =
    match Option.bind (Store.Server.peek store key) int_of_string_opt with
    | Some v -> v
    | None -> Alcotest.fail ("no cursor " ^ key)
  in
  let conn () =
    let spk =
      match Tensor.App.speaker (Tensor.Deploy.service_app w.svc) with
      | Some spk -> spk
      | None -> Alcotest.fail "no speaker"
    in
    match
      List.find_map
        (fun p ->
          if
            Addr.equal (Bgp.Speaker.peer_cfg p).Bgp.Speaker.remote_addr
              w.peer.Tensor.Deploy.pa_addr
          then Bgp.Speaker.peer_conn p
          else None)
        (Bgp.Speaker.peers spk)
    with
    | Some c -> c
    | None -> Alcotest.fail "no connection"
  in
  let fresh = read_meta () in
  let degrades = ref 0 and rearms = ref 0 in
  Telemetry.Control.reset ();
  Telemetry.Gate.set true;
  let sub =
    Telemetry.Bus.subscribe (fun e ->
        match e.Telemetry.Bus.event with
        | Telemetry.Event.Degraded_enter _ -> incr degrades
        | Telemetry.Event.Degraded_exit { epoch; _ } ->
            incr rearms;
            let rearmed = read_meta () in
            checki "meta names the re-armed epoch" epoch
              rearmed.Tensor.Keys.epoch;
            checkb "epoch advanced" true (epoch > fresh.Tensor.Keys.epoch);
            checkb "meta otherwise the fresh record" true
              (rearmed = { fresh with Tensor.Keys.epoch });
            let c = conn () in
            let ecid = Tensor.Keys.epoch_cid cid epoch in
            checki "ack cursor = received position" (Tcp.rcv_nxt c)
              (cursor (Tensor.Keys.ack_key ecid));
            checki "outtrim cursor = sent position"
              (Tcp.snd_nxt c - (Tcp.iss c + 1))
              (cursor (Tensor.Keys.outtrim_key ecid))
        | _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Bus.unsubscribe sub;
      Telemetry.Gate.set false;
      Telemetry.Control.reset ())
    (fun () ->
      let store_node = Store.Server.node store in
      Node.set_up store_node false;
      Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:700_000 50);
      ignore
        (Engine.schedule_after (eng w) (Time.sec 20) (fun () ->
             Node.set_up store_node true));
      Engine.run_for (eng w) (Time.sec 60));
  checki "degraded once" 1 !degrades;
  checki "re-armed once" 1 !rearms;
  checki "peer saw no session drop" 0 !drops

(* --- The NSR safety invariant ------------------------------------------------ *)

(* No TCP segment from the service may carry an ACK beyond the replicated
   watermark in the store. This is THE correctness property of §3.1.1. *)
let watch_ack_invariant w =
  let violations = ref 0 in
  let store = w.dep.Tensor.Deploy.store_server in
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  Link.tap w.peer_link (fun _side pkt ->
      match pkt.Packet.payload with
      | Tcp.Segment.Tcp seg
        when Addr.equal pkt.Packet.src vip1
             && seg.Tcp.Segment.flags.Tcp.Segment.ack ->
          let durable =
            match Store.Server.peek store (Tensor.Keys.ack_key cid) with
            | Some v -> ( match int_of_string_opt v with Some a -> a | None -> 0)
            | None -> max_int (* before establishment: no constraint *)
          in
          if seg.Tcp.Segment.ack > durable then incr violations
      | _ -> ());
  violations

let test_ack_never_precedes_replication () =
  let w = make_world () in
  let violations = watch_ack_invariant w in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 2_000);
  Engine.run_for (eng w) (Time.sec 20);
  checki "tensor learned the flood" 2_000
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  checki "zero watermark violations" 0 !violations

let test_ack_invariant_under_loss () =
  (* Packet loss forces retransmissions, duplicate ACKs and fast
     retransmits: the watermark discipline must hold through all of it. *)
  let w = make_world () in
  let violations = watch_ack_invariant w in
  establish w;
  Link.set_loss w.peer_link 0.01;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 5_000);
  Engine.run_for (eng w) (Time.minutes 2);
  Link.set_loss w.peer_link 0.0;
  Engine.run_for (eng w) (Time.sec 30);
  checki "flood learned despite loss" 5_000
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  checki "zero violations under loss" 0 !violations

let test_ablation_no_ack_hold_violates () =
  (* With the tcp_queue hold disabled, ACKs race ahead of replication:
     the consistency window the paper's design closes. *)
  let w = make_world ~ack_hold:false () in
  let violations = watch_ack_invariant w in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 2_000);
  Engine.run_for (eng w) (Time.sec 20);
  checkb "violations observed without the hold" true (!violations > 0)

let test_storage_bound_after_flood () =
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 5_000);
  Engine.run_for (eng w) (Time.sec 30);
  (* Steady state: in| and out| queues drained; only meta/ack/rib and a
     few stragglers remain. *)
  let store = w.dep.Tensor.Deploy.store_server in
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  let in_keys = Store.Server.keys_with_prefix store (Tensor.Keys.in_prefix cid) in
  let out_keys = Store.Server.keys_with_prefix store (Tensor.Keys.out_prefix cid) in
  checkb
    (Printf.sprintf "in backlog small (%d)" (List.length in_keys))
    true
    (List.length in_keys <= 2);
  let out_bytes =
    List.fold_left
      (fun acc k ->
        acc
        + match Store.Server.peek store k with
          | Some v -> String.length v
          | None -> 0)
      0 out_keys
  in
  checkb
    (Printf.sprintf "out backlog under 64KB (%d B)" out_bytes)
    true (out_bytes < 64_000);
  (* The routing-table checkpoint covers the whole flood. *)
  let rib_keys =
    Store.Server.keys_with_prefix store (Tensor.Keys.rib_prefix ~service:"svc1")
  in
  checki "rib checkpoint complete" 5_000 (List.length rib_keys)

(* --- NSR migrations ------------------------------------------------------------ *)

let run_failure_scenario ~inject ?(post_failure_span = Time.sec 30) () =
  let w = make_world () in
  establish w;
  (* Routes in both directions before the failure. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 500);
  (match Tensor.App.speaker (Tensor.Deploy.service_app w.svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:500_000 200)
  | None -> ());
  Engine.run_for (eng w) (Time.sec 10);
  let drops = watch_peer_continuity w in
  checki "peer has all routes pre-failure" 700 (Bgp.Rib.size (peer_rib w));
  let (), entries =
    Telemetry.Control.capture (fun () ->
        inject w;
        Engine.run_for (eng w) post_failure_span)
  in
  (* Injection to TCP re-synchronization: the whole migration. *)
  let total =
    Telemetry.Phase.seconds ~name:"failover"
      (Telemetry.Phase.of_entries entries)
  in
  (w, drops, total)

let assert_zero_downtime (w, drops, _total) =
  checki "peer session never dropped" 0 !drops;
  checkb "peer session still established" true
    (Bgp.Speaker.peer_state w.peer_handle = Bgp.Session.Established);
  checki "peer kept every route" 700 (Bgp.Rib.size (peer_rib w));
  checki "no stale routes at peer" 0
    (Bgp.Rib.stale_count (peer_rib w)
       ~key:(Bgp.Speaker.peer_source_key w.peer_handle));
  (* The replacement instance serves the session now. *)
  checkb "service re-established on backup" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0");
  checkb "migrated off the original container" true
    (Orch.Container.id (Tensor.Deploy.service_container w.svc) <> "svc1")

let inject kind w = Tensor.Deploy.inject_failure w.dep w.svc kind

let test_nsr_app_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario ~inject:(inject Orch.Controller.App_failure) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "app failure total %.2fs (paper 2.26)" total) true
    (total > 1.0 && total < 5.0)

let test_nsr_container_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Container_failure) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "container failure total %.2fs (paper 2.61)" total)
    true
    (total > 1.0 && total < 6.0)

let test_nsr_host_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Host_failure)
      ~post_failure_span:(Time.sec 40) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "host failure total %.2fs (paper 9.05)" total) true
    (total > 6.0 && total < 13.0)

let test_nsr_host_network_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Host_network_failure)
      ~post_failure_span:(Time.sec 40) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "host network total %.2fs (paper 9.17)" total) true
    (total > 6.0 && total < 13.0)

let test_updates_survive_migration () =
  (* Updates sent by the peer during the outage are not lost: TCP holds
     them (unacked) and the resumed backup receives them. *)
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 100);
  Engine.run_for (eng w) (Time.sec 5);
  inject Orch.Controller.Container_failure w;
  (* While the primary is dead, the peer announces more routes. *)
  ignore
    (Engine.schedule_after (eng w) (Time.ms 500) (fun () ->
         Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
           (Workload.Prefixes.distinct_from ~base:200_000 150)));
  Engine.run_for (eng w) (Time.sec 40);
  checki "all routes present after migration" 250
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0")

let test_double_failure_second_migration () =
  (* The replacement can itself fail and be migrated again. *)
  let ((w, drops, _) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Container_failure) ()
  in
  assert_zero_downtime r;
  inject Orch.Controller.Container_failure w;
  Engine.run_for (eng w) (Time.sec 30);
  checki "still zero drops after second failure" 0 !drops;
  checkb "re-established again" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0")

let test_planned_migration_zero_downtime () =
  (* §4.4: software updates without graceful restart, frozen policies or
     downtime — freeze, drain, migrate a perfectly healthy service. *)
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 400);
  Engine.run_for (eng w) (Time.sec 10);
  let drops = watch_peer_continuity w in
  let before = Orch.Container.id (Tensor.Deploy.service_container w.svc) in
  Tensor.Deploy.planned_migration w.dep w.svc;
  Engine.run_for (eng w) (Time.sec 30);
  checki "peer session never dropped" 0 !drops;
  checkb "service moved" true
    (Orch.Container.id (Tensor.Deploy.service_container w.svc) <> before);
  checkb "session live on the new instance" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0");
  checki "routes intact" 400 (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  (* Routing still works end to end: the peer announces more and the new
     instance learns it. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct_from ~base:800_000 50);
  Engine.run_for (eng w) (Time.sec 5);
  checki "updates flow after planned move" 450
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0")

let test_two_vrf_container_migration () =
  (* One container, two VRFs, two peering ASes (the paper's Figure 3
     container layout). A container failure must migrate both sessions
     transparently. *)
  let dep = Tensor.Deploy.build () in
  let eng = dep.Tensor.Deploy.eng in
  let p1 = Tensor.Deploy.add_peer_as dep ~asn:65021 "as21" in
  let p2 = Tensor.Deploy.add_peer_as dep ~asn:65022 "as22" in
  let vip_a = Addr.of_string "203.0.113.31" in
  let vip_b = Addr.of_string "203.0.113.32" in
  let h1 = Tensor.Deploy.peer_expects p1 ~vrf:"v1" ~vip:vip_a ~local_asn:64900 in
  let h2 = Tensor.Deploy.peer_expects p2 ~vrf:"v2" ~vip:vip_b ~local_asn:64900 in
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"dualvrf" ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v1" ~vip:vip_a
          ~peer_addr:p1.Tensor.Deploy.pa_addr ~peer_asn:65021 ();
        Tensor.App.vrf_spec ~vrf:"v2" ~vip:vip_b
          ~peer_addr:p2.Tensor.Deploy.pa_addr ~peer_asn:65022 ();
      ]
  in
  checkb "both sessions up" true (Tensor.Deploy.wait_established dep svc ());
  Bgp.Speaker.originate p1.Tensor.Deploy.pa_speaker ~vrf:"v1"
    (Workload.Prefixes.distinct 100);
  Bgp.Speaker.originate p2.Tensor.Deploy.pa_speaker ~vrf:"v2"
    (Workload.Prefixes.distinct_from ~base:300_000 200);
  Engine.run_for eng (Time.sec 10);
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down h1 (fun _ -> incr drops);
  Bgp.Speaker.on_peer_down h2 (fun _ -> incr drops);
  Tensor.Deploy.inject_failure dep svc Orch.Controller.Container_failure;
  Engine.run_for eng (Time.sec 30);
  checki "neither peer dropped" 0 !drops;
  checki "vrf v1 intact and isolated" 100
    (Tensor.Deploy.service_routes svc ~vrf:"v1");
  checki "vrf v2 intact and isolated" 200
    (Tensor.Deploy.service_routes svc ~vrf:"v2");
  checkb "both resumed" true
    (Tensor.App.session_established (Tensor.Deploy.service_app svc) ~vrf:"v1"
    && Tensor.App.session_established (Tensor.Deploy.service_app svc) ~vrf:"v2")

(* --- Table 1's recovery timeline ------------------------------------------ *)

(* Table 1's columns are phases of the captured entries. *)
let entry ms event = { Telemetry.Bus.seq = ms; at = Time.ms ms; event }
let injected = Telemetry.Event.Failure_injected { service = "s"; kind = "container" }
let detected = Telemetry.Event.Failure_detected { id = "s"; kind = "container" }
let initiated = Telemetry.Event.Migration_initiated { id = "s" }
let migrated = Telemetry.Event.Migration_done { id = "s"; host = "h1"; container = "c" }
let caught_up vrf = Telemetry.Event.Catchup_done { service = "s"; vrf; msgs = 0; bytes = 0 }
let synced vrf = Telemetry.Event.Tcp_synced { service = "s"; vrf }
let secs = Alcotest.(check (float 1e-9))

let test_timeline_first_milestone_wins () =
  (* A second migration (or a second VRF's resync) must not move a
     phase's end; a stray milestone of an earlier episode, before the
     injection, never closes. *)
  let phases =
    Telemetry.Phase.of_entries
      [
        entry 500 detected;
        entry 1000 injected;
        entry 1300 detected;
        entry 1400 initiated;
        entry 2500 (caught_up "v0");
        entry 2500 migrated;
        entry 3600 (synced "v0");
        entry 3700 (synced "v1");
        entry 9000 detected;
        entry 9100 initiated;
        entry 9900 migrated;
      ]
  in
  let sec name = Telemetry.Phase.seconds ~name phases in
  secs "detect" 0.3 (sec "detect");
  secs "initiate" 0.1 (sec "initiate");
  secs "migrate" 1.1 (sec "migrate");
  secs "tcp" 1.1 (sec "tcp_replay");
  secs "total" 2.6 (sec "failover")

let test_timeline_missing_milestone () =
  let phases =
    Telemetry.Phase.of_entries
      [ entry 0 injected; entry 10 detected; entry 110 initiated ]
  in
  let sec name = Telemetry.Phase.seconds ~name phases in
  secs "detect" 0.01 (sec "detect");
  checkb "no migration" true (Float.is_nan (sec "migrate"));
  checkb "no resync" true (Float.is_nan (sec "failover"));
  checkb "empty capture" true
    (Float.is_nan (Telemetry.Phase.seconds ~name:"detect" []))

let test_timeline_ignores_other_entries () =
  let phases =
    Telemetry.Phase.of_entries
      [
        entry 1 (Telemetry.Event.Failure_injected { service = "s"; kind = "app" });
        entry 2 (Telemetry.Event.Store_crashed { node = "store" });
        entry 3
          (Telemetry.Event.Replica_promoted { service = "s"; container = "c" });
        entry 4
          (Telemetry.Event.Generic
             { cat = Telemetry.Event.Orch; name = "tcp_synced"; detail = "" });
        entry 51 (synced "v0");
      ]
  in
  let sec name = Telemetry.Phase.seconds ~name phases in
  checkb "nothing detected" true (Float.is_nan (sec "detect"));
  checkb "nothing initiated" true (Float.is_nan (sec "initiate"));
  secs "tcp synced" 0.05 (sec "failover")

let () =
  Alcotest.run "tensor"
    [
      ( "keys",
        [
          Alcotest.test_case "meta roundtrip" `Quick test_keys_meta_roundtrip;
          Alcotest.test_case "in record" `Quick test_keys_in_record_roundtrip;
          Alcotest.test_case "rib entry" `Quick test_keys_rib_roundtrip;
          Alcotest.test_case "key parsers" `Quick test_keys_parsers;
          Alcotest.test_case "key zero padding" `Quick test_keys_padding_edges;
          Alcotest.test_case "cached encoder invalidation" `Quick
            test_cached_encoder_invalidation;
          Alcotest.test_case "unhex is strict" `Quick test_unhex_strict;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "establishes" `Quick test_deployment_establishes;
          Alcotest.test_case "routes both ways" `Quick
            test_routes_propagate_both_ways;
          Alcotest.test_case "meta written" `Quick test_meta_written_to_store;
          Alcotest.test_case "re-arm rewrites meta and cursors" `Quick
            test_rearm_rewrites_meta_and_cursors;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "ACK never precedes replication" `Quick
            test_ack_never_precedes_replication;
          Alcotest.test_case "ablation: no hold -> violations" `Quick
            test_ablation_no_ack_hold_violates;
          Alcotest.test_case "invariant holds under loss" `Quick
            test_ack_invariant_under_loss;
          Alcotest.test_case "storage bound" `Quick test_storage_bound_after_flood;
        ] );
      ( "nsr",
        [
          Alcotest.test_case "app failure" `Quick test_nsr_app_failure;
          Alcotest.test_case "container failure" `Quick
            test_nsr_container_failure;
          Alcotest.test_case "host failure" `Quick test_nsr_host_failure;
          Alcotest.test_case "host network failure" `Quick
            test_nsr_host_network_failure;
          Alcotest.test_case "updates survive migration" `Quick
            test_updates_survive_migration;
          Alcotest.test_case "double failure" `Quick
            test_double_failure_second_migration;
          Alcotest.test_case "planned migration" `Quick
            test_planned_migration_zero_downtime;
          Alcotest.test_case "two-VRF container" `Quick
            test_two_vrf_container_migration;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "first milestone wins" `Quick
            test_timeline_first_milestone_wins;
          Alcotest.test_case "missing milestone" `Quick
            test_timeline_missing_milestone;
          Alcotest.test_case "other entries ignored" `Quick
            test_timeline_ignores_other_entries;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hex_roundtrip;
            prop_meta_roundtrip;
            prop_codec_matches_printf;
            prop_store_matches_reference;
            prop_hex_matches_printf;
            prop_stream_keys_match_printf;
            prop_cached_encoder;
          ] );
    ]
