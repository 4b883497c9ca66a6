(* Tests for the BGP library: attributes, the RFC 4271 codec and framer,
   RIB decision process, policy, session FSM, and speaker behaviour
   (propagation, update packing, iBGP rules, graceful restart). *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pfx s = Addr.prefix_of_string s
let ip s = Addr.of_string s

(* --- Attrs --------------------------------------------------------------- *)

let test_attrs_path_length () =
  let a =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 1; 2; 3 ]; Bgp.Attrs.Set [ 4; 5 ] ]
      ~next_hop:(ip "1.1.1.1") ()
  in
  checki "seq counts per ASN, set as one" 4 (Bgp.Attrs.as_path_length a)

let test_attrs_prepend () =
  let a = Bgp.Attrs.make ~next_hop:(ip "1.1.1.1") () in
  let a = Bgp.Attrs.prepend (Bgp.Attrs.prepend a 100) 200 in
  (match a.Bgp.Attrs.as_path with
  | [ Bgp.Attrs.Seq [ 200; 100 ] ] -> ()
  | _ -> Alcotest.fail "prepend order");
  checkb "contains" true (Bgp.Attrs.path_contains a 100);
  checkb "not contains" false (Bgp.Attrs.path_contains a 300)

let test_attrs_communities () =
  let a = Bgp.Attrs.make ~next_hop:(ip "1.1.1.1") () in
  let a = Bgp.Attrs.add_community a (65000, 120) in
  let a = Bgp.Attrs.add_community a (65000, 120) in
  checki "no duplicates" 1 (List.length a.Bgp.Attrs.communities);
  checkb "has" true (Bgp.Attrs.has_community a (65000, 120))

(* --- Codec --------------------------------------------------------------- *)

let roundtrip ?as4 msg =
  match Bgp.Msg.decode ?as4 (Bgp.Msg.encode ?as4 msg) with
  | Ok m -> m
  | Error e -> Alcotest.failf "decode error: %a" Bgp.Msg.pp_error e

let test_codec_keepalive () =
  checkb "keepalive" true (roundtrip Bgp.Msg.Keepalive = Bgp.Msg.Keepalive);
  checki "19 bytes" 19 (String.length (Bgp.Msg.encode Bgp.Msg.Keepalive))

let test_codec_open () =
  let o =
    Bgp.Msg.Open
      {
        version = 4;
        asn = 65001;
        hold_time = 90;
        router_id = ip "10.0.0.1";
        capabilities =
          [
            Bgp.Msg.Cap_route_refresh;
            Bgp.Msg.Cap_four_octet_asn 65001;
            Bgp.Msg.Cap_graceful_restart
              { restart_time = 120; preserved_fwd = true };
          ];
      }
  in
  checkb "open roundtrip" true (roundtrip o = o)

let test_codec_open_as4 () =
  (* A 4-byte ASN must survive via AS_TRANS + capability 65. *)
  let o =
    Bgp.Msg.Open
      {
        version = 4;
        asn = 400_000;
        hold_time = 90;
        router_id = ip "10.0.0.1";
        capabilities = [ Bgp.Msg.Cap_four_octet_asn 400_000 ];
      }
  in
  match roundtrip o with
  | Bgp.Msg.Open o' -> checki "large asn preserved" 400_000 o'.Bgp.Msg.asn
  | _ -> Alcotest.fail "wrong type"

let full_attrs =
  Bgp.Attrs.make ~origin:Bgp.Attrs.Egp
    ~as_path:[ Bgp.Attrs.Seq [ 65001; 65002 ]; Bgp.Attrs.Set [ 7; 8 ] ]
    ~med:50 ~local_pref:200 ~atomic_aggregate:true
    ~communities:[ (65001, 1); (65001, 2) ]
    ~next_hop:(ip "192.0.2.1") ()

let test_codec_update () =
  let u =
    Bgp.Msg.Update
      {
        withdrawn = [ pfx "10.1.0.0/16"; pfx "10.2.3.0/24" ];
        attrs = Some full_attrs;
        nlri = [ pfx "203.0.113.0/24"; pfx "198.51.100.128/25" ];
      }
  in
  checkb "update roundtrip" true (roundtrip u = u)

let test_codec_update_as2 () =
  let u =
    Bgp.Msg.Update
      {
        withdrawn = [];
        attrs =
          Some
            (Bgp.Attrs.make
               ~as_path:[ Bgp.Attrs.Seq [ 65001 ] ]
               ~next_hop:(ip "192.0.2.1") ());
        nlri = [ pfx "203.0.113.0/24" ];
      }
  in
  checkb "2-byte AS_PATH roundtrip" true (roundtrip ~as4:false u = u)

let test_codec_notification () =
  let n = Bgp.Msg.Notification { code = 6; subcode = 2; data = "shutdown" } in
  checkb "notification roundtrip" true (roundtrip n = n)

let test_codec_route_refresh () =
  let r = Bgp.Msg.Route_refresh { afi = 1; safi = 1 } in
  checkb "route refresh roundtrip" true (roundtrip r = r)

let test_codec_end_of_rib () =
  let m = roundtrip Bgp.Msg.end_of_rib in
  checkb "EoR detected" true (Bgp.Msg.is_end_of_rib m);
  checki "23 bytes" 23 (String.length (Bgp.Msg.encode Bgp.Msg.end_of_rib))

let test_codec_rejects_garbage () =
  (match Bgp.Msg.decode (String.make 19 '\x00') with
  | Error Bgp.Msg.Bad_marker -> ()
  | _ -> Alcotest.fail "marker not checked");
  let ka = Bgp.Msg.encode Bgp.Msg.Keepalive in
  let bad_type = String.sub ka 0 18 ^ "\x09" in
  (match Bgp.Msg.decode bad_type with
  | Error (Bgp.Msg.Bad_type 9) -> ()
  | _ -> Alcotest.fail "type not checked");
  match Bgp.Msg.decode (String.sub ka 0 10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short frame accepted"

let test_codec_max_size_enforced () =
  let nlri = List.init 1500 (fun i -> pfx (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))) in
  let u =
    Bgp.Msg.Update
      { withdrawn = []; attrs = Some full_attrs; nlri }
  in
  Alcotest.check_raises "too big" (Invalid_argument "x") (fun () ->
      try ignore (Bgp.Msg.encode u)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_framer_reassembles () =
  let msgs =
    [
      Bgp.Msg.Keepalive;
      Bgp.Msg.Update
        { withdrawn = []; attrs = Some full_attrs; nlri = [ pfx "10.0.0.0/8" ] };
      Bgp.Msg.Keepalive;
    ]
  in
  let stream = String.concat "" (List.map (fun m -> Bgp.Msg.encode m) msgs) in
  let framer = Bgp.Msg.Framer.create () in
  (* Feed one byte at a time: worst-case fragmentation. *)
  let out = ref [] in
  String.iter
    (fun c ->
      List.iter
        (function
          | Ok (m, _) -> out := m :: !out
          | Error e -> Alcotest.failf "framer error %a" Bgp.Msg.pp_error e)
        (Bgp.Msg.Framer.push framer (String.make 1 c)))
    stream;
  checkb "all reassembled" true (List.rev !out = msgs);
  checki "nothing buffered" 0 (String.length (Bgp.Msg.Framer.buffered_bytes framer))

let test_framer_poisons_on_error () =
  let framer = Bgp.Msg.Framer.create () in
  let bad = String.make 16 '\xFF' ^ "\x00\x05\x04" in
  (* length 5 < 19 *)
  let results = Bgp.Msg.Framer.push framer bad in
  checkb "error reported" true
    (List.exists (function Error _ -> true | Ok _ -> false) results);
  let after = Bgp.Msg.Framer.push framer (Bgp.Msg.encode Bgp.Msg.Keepalive) in
  checkb "poisoned" true
    (List.for_all (function Error _ -> true | Ok _ -> false) after)

(* One push carrying three whole frames and the head of a fourth hands up
   the three frames byte for byte and keeps exactly the head; the next
   push completes the fourth and keeps the head of a fifth. *)
let test_framer_many_frames_per_push () =
  let frames =
    List.map Bgp.Msg.encode
      [
        Bgp.Msg.Keepalive;
        Bgp.Msg.Update
          { withdrawn = []; attrs = Some full_attrs; nlri = [ pfx "10.0.0.0/8" ] };
        Bgp.Msg.Keepalive;
        Bgp.Msg.Update
          { withdrawn = [ pfx "10.1.0.0/16" ]; attrs = None; nlri = [] };
        Bgp.Msg.Keepalive;
      ]
  in
  let f = Array.of_list frames in
  let framer = Bgp.Msg.Framer.create () in
  let cut = 7 in
  let frames_of results =
    List.map
      (function
        | Ok (_, raw) -> raw
        | Error e -> Alcotest.failf "framer error %a" Bgp.Msg.pp_error e)
      results
  in
  let first =
    Bgp.Msg.Framer.push framer (f.(0) ^ f.(1) ^ f.(2) ^ String.sub f.(3) 0 cut)
  in
  Alcotest.(check (list string))
    "three frames" [ f.(0); f.(1); f.(2) ] (frames_of first);
  Alcotest.(check string)
    "partial head held" (String.sub f.(3) 0 cut)
    (Bgp.Msg.Framer.buffered_bytes framer);
  let rest = String.sub f.(3) cut (String.length f.(3) - cut) in
  let second = Bgp.Msg.Framer.push framer (rest ^ String.sub f.(4) 0 5) in
  Alcotest.(check (list string)) "fourth frame" [ f.(3) ] (frames_of second);
  checki "fifth's head held" 5 (String.length (Bgp.Msg.Framer.buffered_bytes framer))

(* --- RIB ----------------------------------------------------------------- *)

let src ?(ebgp = true) ?(asn = 65010) ?(rid = "9.9.9.9") key addr =
  {
    Bgp.Rib.key;
    peer_asn = asn;
    peer_addr = ip addr;
    router_id = ip rid;
    ebgp;
  }

let attrs ?(path = [ 65010 ]) ?lp ?med ?(nh = "192.0.2.1") () =
  Bgp.Attrs.make
    ~as_path:[ Bgp.Attrs.Seq path ]
    ?local_pref:lp ?med ~next_hop:(ip nh) ()

(* Aligned prefixes share their low bits; the table keeps only the low
   bits of a hash, so the mix must spread them or they pile into one
   bucket. *)
let test_rib_hash_spreads_aligned () =
  let buckets = Hashtbl.create 4096 in
  for i = 0 to 9_999 do
    let p = Addr.prefix (Addr.of_int (i lsl 8)) 24 in
    Hashtbl.replace buckets (Bgp.Rib.prefix_hash p land 4095) ()
  done;
  let used = Hashtbl.length buckets in
  checkb (Printf.sprintf "%d of 4096 buckets used" used) true (used >= 1_000)

let test_rib_install_withdraw () =
  let rib = Bgp.Rib.create () in
  let s = src "p1" "10.0.0.2" in
  let p = pfx "203.0.113.0/24" in
  (match Bgp.Rib.update rib s p (Some (attrs ())) with
  | Some (Bgp.Rib.Best_changed _) -> ()
  | _ -> Alcotest.fail "expected best change");
  checki "size" 1 (Bgp.Rib.size rib);
  (* Same attrs again: no change. *)
  checkb "idempotent" true (Bgp.Rib.update rib s p (Some (attrs ())) = None);
  (match Bgp.Rib.update rib s p None with
  | Some (Bgp.Rib.Best_withdrawn _) -> ()
  | _ -> Alcotest.fail "expected withdraw");
  checki "empty" 0 (Bgp.Rib.size rib);
  checkb "withdraw of absent is silent" true (Bgp.Rib.update rib s p None = None)

let test_rib_local_pref_wins () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  ignore
    (Bgp.Rib.update rib (src "p1" "10.0.0.2") p
       (Some (attrs ~lp:100 ~path:[ 1 ] ())));
  ignore
    (Bgp.Rib.update rib (src "p2" "10.0.0.6") p
       (Some (attrs ~lp:200 ~path:[ 1; 2; 3 ] ())));
  match Bgp.Rib.best rib p with
  | Some best ->
      checkb "higher lp wins despite longer path" true
        (best.Bgp.Rib.source.Bgp.Rib.key = "p2")
  | None -> Alcotest.fail "no best"

let test_rib_shorter_path_wins () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  ignore (Bgp.Rib.update rib (src "p1" "10.0.0.2") p (Some (attrs ~path:[ 1; 2 ] ())));
  ignore (Bgp.Rib.update rib (src "p2" "10.0.0.6") p (Some (attrs ~path:[ 3 ] ())));
  match Bgp.Rib.best rib p with
  | Some best -> checkb "shorter path" true (best.Bgp.Rib.source.Bgp.Rib.key = "p2")
  | None -> Alcotest.fail "no best"

let test_rib_med_same_neighbor_only () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  (* Same neighbour AS 7: lower MED wins. *)
  ignore
    (Bgp.Rib.update rib (src "p1" "10.0.0.2") p
       (Some (attrs ~path:[ 7 ] ~med:10 ())));
  ignore
    (Bgp.Rib.update rib (src "p2" "10.0.0.6") p
       (Some (attrs ~path:[ 7 ] ~med:5 ())));
  (match Bgp.Rib.best rib p with
  | Some best -> checkb "lower med" true (best.Bgp.Rib.source.Bgp.Rib.key = "p2")
  | None -> Alcotest.fail "no best");
  (* Different neighbour AS: MED ignored, falls through to router id. *)
  let rib2 = Bgp.Rib.create () in
  ignore
    (Bgp.Rib.update rib2
       (src ~rid:"1.1.1.1" "p1" "10.0.0.2")
       p
       (Some (attrs ~path:[ 7 ] ~med:10 ())));
  ignore
    (Bgp.Rib.update rib2
       (src ~rid:"2.2.2.2" "p2" "10.0.0.6")
       p
       (Some (attrs ~path:[ 8 ] ~med:5 ())));
  match Bgp.Rib.best rib2 p with
  | Some best ->
      checkb "med skipped, lower rid wins" true
        (best.Bgp.Rib.source.Bgp.Rib.key = "p1")
  | None -> Alcotest.fail "no best"

let test_rib_ebgp_over_ibgp () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  ignore
    (Bgp.Rib.update rib (src ~ebgp:false "ib" "10.0.0.2") p
       (Some (attrs ~path:[ 5 ] ())));
  ignore
    (Bgp.Rib.update rib (src ~ebgp:true "eb" "10.0.0.6") p
       (Some (attrs ~path:[ 5 ] ())));
  match Bgp.Rib.best rib p with
  | Some best -> checkb "ebgp preferred" true (best.Bgp.Rib.source.Bgp.Rib.key = "eb")
  | None -> Alcotest.fail "no best"

let test_rib_remove_source () =
  let rib = Bgp.Rib.create () in
  ignore (Bgp.Rib.update rib (src "p1" "10.0.0.2") (pfx "10.1.0.0/16") (Some (attrs ())));
  ignore (Bgp.Rib.update rib (src "p1" "10.0.0.2") (pfx "10.2.0.0/16") (Some (attrs ())));
  ignore (Bgp.Rib.update rib (src "p2" "10.0.0.6") (pfx "10.1.0.0/16") (Some (attrs ~path:[1;2;3] ())));
  let changes = Bgp.Rib.Changes.create () in
  Bgp.Rib.remove_source rib ~key:"p1" changes;
  checki "two changes" 2 (Bgp.Rib.Changes.length changes);
  checki "one prefix left" 1 (Bgp.Rib.size rib);
  checkb "fallback to p2" true
    (match Bgp.Rib.best rib (pfx "10.1.0.0/16") with
    | Some b -> b.Bgp.Rib.source.Bgp.Rib.key = "p2"
    | None -> false)

let test_rib_stale_lifecycle () =
  let rib = Bgp.Rib.create () in
  let s = src "p1" "10.0.0.2" in
  ignore (Bgp.Rib.update rib s (pfx "10.1.0.0/16") (Some (attrs ())));
  ignore (Bgp.Rib.update rib s (pfx "10.2.0.0/16") (Some (attrs ())));
  checki "marked" 2 (Bgp.Rib.mark_source_stale rib ~key:"p1");
  checki "stale count" 2 (Bgp.Rib.stale_count rib ~key:"p1");
  (* Stale routes still forward. *)
  checkb "still best" true (Bgp.Rib.best rib (pfx "10.1.0.0/16") <> None);
  (* Refresh one: it is no longer stale. *)
  ignore (Bgp.Rib.update rib s (pfx "10.1.0.0/16") (Some (attrs ())));
  checki "one stale left" 1 (Bgp.Rib.stale_count rib ~key:"p1");
  let changes = Bgp.Rib.Changes.create () in
  Bgp.Rib.sweep_stale rib ~key:"p1" changes;
  checki "swept one" 1 (Bgp.Rib.Changes.length changes);
  checkb "refreshed survives" true (Bgp.Rib.best rib (pfx "10.1.0.0/16") <> None);
  checkb "stale removed" true (Bgp.Rib.best rib (pfx "10.2.0.0/16") = None)

(* The flat table's footprint, measured with OCaml 5.1.1, 64-bit, no
   flambda, dune's default dev profile. Live words after [Gc.full_major]
   and [Prof.Profiler.allocated_bytes] (exact: every young word) are
   deterministic for a fixed program and compiler; another compiler or
   optimiser setting moves these figures and may need the bounds
   re-measured.

   A 20k-prefix single-source table built with one shared path keeps 4.9
   live words per prefix: three slot arrays (key, path, chain) at 32,768
   slots, and no node pool, since each prefix has one path (8.2 when a
   node held every path; the hash table of per-prefix entries kept 16.8
   through [update]). Growing a table to 50k prefixes in 500-prefix
   batches, as UPDATEs and originations do, allocates 125.7 B per prefix:
   the slot arrays doubling from 16 to 131,072 slots (167 B when the
   node pool doubled beside them). [fold_best] over 100k prefixes
   allocates 6.2 MB; the collect-then-sort over (prefix, entry) pairs
   ([Ref_rib.fold_best] below) allocates 45.0 MB, and the bound is a
   third of that. *)
let rib_live_words_per_prefix_bound = 6.
let rib_growth_bytes_per_prefix_bound = 130.
let fold_best_100k_bytes_bound = 45_017_408. /. 3.

let aligned_prefixes n = Array.init n (fun i -> Addr.prefix (Addr.of_int (i lsl 8)) 24)

let installed ?reserve prefixes =
  let rib = Bgp.Rib.create () in
  Option.iter (Bgp.Rib.reserve rib) reserve;
  let path = { Bgp.Rib.source = src "p1" "10.0.0.2"; attrs = attrs (); stale = false } in
  let changes = Bgp.Rib.Changes.create () in
  Array.iter
    (fun p ->
      Bgp.Rib.Changes.clear changes;
      Bgp.Rib.install rib path p changes)
    prefixes;
  rib

let test_rib_live_words () =
  let n = 20_000 in
  (* The prefixes belong to the caller and stay live throughout. *)
  let prefixes = aligned_prefixes n in
  Gc.full_major ();
  let w0 = (Gc.stat ()).live_words in
  let rib = installed prefixes in
  Gc.full_major ();
  let per_prefix = float_of_int ((Gc.stat ()).live_words - w0) /. float_of_int n in
  checki "size" n (Bgp.Rib.size rib);
  ignore (Sys.opaque_identity prefixes);
  if per_prefix > rib_live_words_per_prefix_bound then
    Alcotest.failf "the table keeps %.1f live words per prefix (bound %.0f)" per_prefix
      rib_live_words_per_prefix_bound

let test_rib_growth_allocation () =
  let n = 50_000 and batch = 500 in
  let prefixes = aligned_prefixes n in
  let rib = Bgp.Rib.create () and changes = Bgp.Rib.Changes.create () in
  let path = { Bgp.Rib.source = src "p1" "10.0.0.2"; attrs = attrs (); stale = false } in
  let a0 = Prof.Profiler.allocated_bytes () in
  for b = 0 to (n / batch) - 1 do
    Bgp.Rib.Changes.clear changes;
    Bgp.Rib.reserve rib batch;
    for i = b * batch to ((b + 1) * batch) - 1 do
      Bgp.Rib.install rib path prefixes.(i) changes
    done
  done;
  let per_prefix = (Prof.Profiler.allocated_bytes () -. a0) /. float_of_int n in
  checki "size" n (Bgp.Rib.size rib);
  checki "no pool for single paths" n (Bgp.Rib.path_count rib);
  if per_prefix > rib_growth_bytes_per_prefix_bound then
    Alcotest.failf "growing to 50k prefixes allocates %.1f B/prefix (bound %.0f)" per_prefix
      rib_growth_bytes_per_prefix_bound

(* [reserve] only moves a batch's growth forward: a table reserved for
   its batch ends exactly as large as one grown an insert at a time, and
   reserving no more than a table holds changes nothing. The sizes cross
   the slot growth points (12, 24, ...). *)
let test_rib_reserve_size () =
  let words rib = Obj.reachable_words (Obj.repr rib) in
  List.iter
    (fun n ->
      let prefixes = aligned_prefixes n in
      let grown = installed prefixes and reserved = installed ~reserve:n prefixes in
      checki (Printf.sprintf "%d prefixes: words" n) (words grown) (words reserved);
      Bgp.Rib.reserve reserved n;
      Bgp.Rib.reserve reserved (n / 2);
      checki (Printf.sprintf "%d prefixes: words after a re-reserve" n) (words grown)
        (words reserved))
    [ 1; 12; 13; 16; 17; 24; 25; 100; 193; 1000; 5000 ]

let count_best k _ _ = k + 1

let test_rib_fold_best_allocation () =
  let rib = installed (aligned_prefixes 100_000) in
  let a0 = Prof.Profiler.allocated_bytes () in
  let folded = Bgp.Rib.fold_best rib ~init:0 ~f:count_best in
  let bytes = Prof.Profiler.allocated_bytes () -. a0 in
  checki "folded every prefix" 100_000 folded;
  if bytes > fold_best_100k_bytes_bound then
    Alcotest.failf "fold_best allocates %.0f bytes over 100k prefixes (bound %.0f)" bytes
      fold_best_100k_bytes_bound

(* [digest] hashes the strings [best_prefixes] lists, so on top of
   building them it may allocate only its 16-byte hex result and a few
   boxes: the FNV fold itself allocates nothing. *)
let test_rib_digest_allocation () =
  let rib = installed (aligned_prefixes 100_000) in
  let a0 = Prof.Profiler.allocated_bytes () in
  ignore (Sys.opaque_identity (Bgp.Rib.best_prefixes ~source_key:"p1" rib));
  let listed = Prof.Profiler.allocated_bytes () -. a0 in
  let a1 = Prof.Profiler.allocated_bytes () in
  ignore (Sys.opaque_identity (Bgp.Rib.digest ~source_key:"p1" rib));
  let hashed = Prof.Profiler.allocated_bytes () -. a1 in
  if hashed > listed +. 1024. then
    Alcotest.failf "digest allocates %.0f bytes over 100k prefixes (bound %.0f)" hashed
      (listed +. 1024.)

(* --- The Loc-RIB against the hash-table RIB it replaced ------------------ *)

(* The RIB as it was before the flat table: a [Hashtbl] of per-prefix
   entries holding a path list and an optional best path, and every
   whole-table traversal a collect-then-sort over (prefix, entry) pairs.
   The decision process is [Bgp.Rib.better] itself: the property below
   checks the table, not RFC 4271. *)
(* A change buffer's contents, in order. *)
let changes_list c = List.init (Bgp.Rib.Changes.length c) (Bgp.Rib.Changes.change c)

module Ref_rib = struct
  open Bgp.Rib

  type entry = { mutable paths : path list; mutable best : path option }

  module PrefixTbl = Hashtbl.Make (struct
    type t = Addr.prefix

    let equal = Addr.equal_prefix
    let hash = Bgp.Rib.prefix_hash
  end)

  type t = { table : entry PrefixTbl.t; mutable npaths : int }

  let create () = { table = PrefixTbl.create 1024; npaths = 0 }

  let select_best = function
    | [] -> None
    | first :: rest ->
        Some (List.fold_left (fun acc p -> if better p acc then p else acc) first rest)

  let same_best a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y ->
        String.equal x.source.key y.source.key && Bgp.Attrs.equal x.attrs y.attrs
    | _ -> false

  let entry_of t prefix =
    match PrefixTbl.find_opt t.table prefix with
    | Some e -> e
    | None ->
        let e = { paths = []; best = None } in
        PrefixTbl.replace t.table prefix e;
        e

  let recompute t prefix entry =
    let old_best = entry.best in
    let new_best = select_best entry.paths in
    entry.best <- new_best;
    if entry.paths = [] then PrefixTbl.remove t.table prefix;
    if same_best old_best new_best then None
    else
      match new_best with
      | Some p -> Some (Best_changed (prefix, p))
      | None -> Some (Best_withdrawn prefix)

  let update t source prefix attrs =
    let entry = entry_of t prefix in
    let without =
      List.filter (fun p -> not (String.equal p.source.key source.key)) entry.paths
    in
    let had = List.length without <> List.length entry.paths in
    (match attrs with
    | Some attrs ->
        entry.paths <- { source; attrs; stale = false } :: without;
        if not had then t.npaths <- t.npaths + 1
    | None ->
        entry.paths <- without;
        if had then t.npaths <- t.npaths - 1);
    recompute t prefix entry

  let best t prefix =
    match PrefixTbl.find_opt t.table prefix with Some e -> e.best | None -> None

  let candidates t prefix =
    match PrefixTbl.find_opt t.table prefix with
    | None -> []
    | Some e -> List.sort (fun a b -> if better a b then -1 else 1) e.paths

  let size t = PrefixTbl.length t.table
  let path_count t = t.npaths

  let sorted_entries t =
    List.sort
      (fun (a, _) (b, _) -> Addr.compare_prefix a b)
      (PrefixTbl.fold (fun prefix e acc -> (prefix, e) :: acc) t.table [])

  let fold_best t ~init ~f =
    List.fold_left
      (fun acc (prefix, e) ->
        match e.best with Some p -> f acc prefix p | None -> acc)
      init (sorted_entries t)

  let best_prefixes ?source_key t =
    fold_best t ~init:[] ~f:(fun acc prefix path ->
        match source_key with
        | Some k when not (String.equal path.source.key k) -> acc
        | _ -> Addr.prefix_to_string prefix :: acc)
    |> List.sort String.compare

  let digest ?source_key t =
    let mix h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) 0x100000001b3L in
    let line h s =
      let h = ref h in
      String.iter (fun c -> h := mix !h (Char.code c)) s;
      mix !h (Char.code '\n')
    in
    Printf.sprintf "%016Lx"
      (List.fold_left line 0xcbf29ce484222325L (best_prefixes ?source_key t))

  let transform_source t ~key ~f =
    List.filter
      (fun (_, e) -> List.exists (fun p -> String.equal p.source.key key) e.paths)
      (sorted_entries t)
    |> List.filter_map (fun (prefix, e) -> f prefix e)

  let drop t ~key ~keep =
    transform_source t ~key ~f:(fun prefix e ->
        let before = List.length e.paths in
        e.paths <- List.filter keep e.paths;
        t.npaths <- t.npaths - (before - List.length e.paths);
        recompute t prefix e)

  let remove_source t ~key =
    drop t ~key ~keep:(fun p -> not (String.equal p.source.key key))

  let sweep_stale t ~key =
    drop t ~key ~keep:(fun p -> not (String.equal p.source.key key && p.stale))

  let mark_source_stale t ~key =
    let marked = ref 0 in
    List.iter
      (fun (_, e) ->
        e.paths <-
          List.map
            (fun p ->
              if String.equal p.source.key key && not p.stale then begin
                incr marked;
                { p with stale = true }
              end
              else p)
            e.paths;
        e.best <- select_best e.paths)
      (sorted_entries t);
    !marked

  let stale_count t ~key =
    List.fold_left
      (fun acc (_, e) ->
        acc
        + List.length
            (List.filter (fun p -> String.equal p.source.key key && p.stale) e.paths))
      0 (sorted_entries t)
end

(* Sources that reach every tie-break of RFC 4271 §9.1.2.2 after the
   attributes: eBGP and iBGP, equal and different router ids, and two
   sources told apart only by peer address. *)
let rib_sources =
  [|
    src ~ebgp:true ~rid:"1.1.1.1" "s0" "10.0.0.1";
    src ~ebgp:true ~rid:"1.1.1.1" "s1" "10.0.0.2";
    src ~ebgp:false ~rid:"2.2.2.2" "s2" "10.0.0.3";
    src ~ebgp:true ~rid:"0.9.9.9" "s3" "10.0.0.4";
  |]

(* Attribute sets crossing every attribute step: LOCAL_PREF absent, low
   or high; AS paths of one to three hops whose first AS (the neighbour
   AS, which scopes MED) is 7 or 8; each origin; MED absent or set. *)
let gen_rib_attrs =
  QCheck.Gen.(
    let* lp = oneofl [ None; Some 100; Some 200 ] in
    let* neighbour = oneofl [ 7; 8 ] in
    let* hops = int_range 0 2 in
    let* origin = oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ] in
    let* med = oneofl [ None; Some 0; Some 5; Some 10 ] in
    return
      (Bgp.Attrs.make ~origin
         ~as_path:[ Bgp.Attrs.Seq (neighbour :: List.init hops (fun i -> 100 + i)) ]
         ?local_pref:lp ?med ~next_hop:(ip "192.0.2.1") ()))

(* Prefix [i] of the script universe: 600 /24s, enough for live tables
   to cross the 12, 24, 48, 96 and 192 growth points. *)
let rib_prefix i = Addr.prefix (Addr.of_int ((i mod 600) lsl 8)) 24

type rib_op =
  | Set of int * int * Bgp.Attrs.t  (** [update] with attributes. *)
  | Unset of int * int  (** [update] with [None]. *)
  | Batch of int * int * int * Bgp.Attrs.t
      (** [install] of one shared path on a run of prefixes. *)
  | Mark of int
  | Sweep of int
  | Remove of int

let gen_rib_op =
  QCheck.Gen.(
    let src = int_bound (Array.length rib_sources - 1) in
    let pfx = int_bound 599 in
    frequency
      [
        (6, map3 (fun s p a -> Set (s, p, a)) src pfx gen_rib_attrs);
        (4, map2 (fun s p -> Unset (s, p)) src pfx);
        ( 4,
          let* s = src and* p = pfx and* n = int_range 1 80 and* a = gen_rib_attrs in
          return (Batch (s, p, n, a)) );
        (1, map (fun s -> Mark s) src);
        (1, map (fun s -> Sweep s) src);
        (1, map (fun s -> Remove s) src);
      ])

let show_rib_op = function
  | Set (s, p, _) -> Printf.sprintf "set s%d #%d" s p
  | Unset (s, p) -> Printf.sprintf "unset s%d #%d" s p
  | Batch (s, p, n, _) -> Printf.sprintf "batch s%d #%d+%d" s p n
  | Mark s -> Printf.sprintf "mark s%d" s
  | Sweep s -> Printf.sprintf "sweep s%d" s
  | Remove s -> Printf.sprintf "remove s%d" s

let show_path (p : Bgp.Rib.path) =
  Format.asprintf "%s%s %a" p.source.key
    (if p.stale then " (stale)" else "")
    Bgp.Attrs.pp p.attrs

let show_change = function
  | Bgp.Rib.Best_changed (p, path) -> Addr.prefix_to_string p ^ " <- " ^ show_path path
  | Bgp.Rib.Best_withdrawn p -> Addr.prefix_to_string p ^ " withdrawn"

(* Structural equality compares paths by content: the flat table shares
   one path record across a batch, the reference builds one per prefix.
   Printing waits for a failure. *)
let agree what show expected got =
  if expected <> got then
    QCheck.Test.fail_reportf "%s:\n reference [%s]\n flat      [%s]" what
      (String.concat "; " (List.map show expected))
      (String.concat "; " (List.map show got))

let agree_int what expected got =
  if expected <> got then
    QCheck.Test.fail_reportf "%s: reference %d, flat %d" what expected got

(* Applies [op] to both tables; returns the changes each reported and the
   prefixes the step touched ([None]: possibly all of them). *)
let apply_both rib ref_rib op =
  let source s = rib_sources.(s) in
  let key s = (source s).Bgp.Rib.key in
  let one p = Some [ p ] in
  match op with
  | Set (s, i, a) ->
      let p = rib_prefix i in
      ( Option.to_list (Ref_rib.update ref_rib (source s) p (Some a)),
        Option.to_list (Bgp.Rib.update rib (source s) p (Some a)),
        one p )
  | Unset (s, i) ->
      let p = rib_prefix i in
      ( Option.to_list (Ref_rib.update ref_rib (source s) p None),
        Option.to_list (Bgp.Rib.update rib (source s) p None),
        one p )
  | Batch (s, i, n, a) ->
      let ps = List.init n (fun j -> rib_prefix (i + j)) in
      let path = { Bgp.Rib.source = source s; attrs = a; stale = false } in
      (* As the speaker installs a batch. *)
      Bgp.Rib.reserve rib n;
      let expected =
        List.fold_left
          (fun acc p ->
            match Ref_rib.update ref_rib (source s) p (Some a) with
            | Some ch -> ch :: acc
            | None -> acc)
          [] ps
      in
      let changes = Bgp.Rib.Changes.create () in
      List.iter (fun p -> Bgp.Rib.install rib path p changes) ps;
      (List.rev expected, changes_list changes, Some ps)
  | Mark s ->
      agree_int "marked"
        (Ref_rib.mark_source_stale ref_rib ~key:(key s))
        (Bgp.Rib.mark_source_stale rib ~key:(key s));
      ([], [], None)
  | Sweep s ->
      let changes = Bgp.Rib.Changes.create () in
      Bgp.Rib.sweep_stale rib ~key:(key s) changes;
      (Ref_rib.sweep_stale ref_rib ~key:(key s), changes_list changes, None)
  | Remove s ->
      let changes = Bgp.Rib.Changes.create () in
      Bgp.Rib.remove_source rib ~key:(key s) changes;
      (Ref_rib.remove_source ref_rib ~key:(key s), changes_list changes, None)

let universe = List.init 600 rib_prefix

let step_agrees rib ref_rib op =
  let what = show_rib_op op in
  let expected, got, touched = apply_both rib ref_rib op in
  agree ("changes of " ^ what) show_change expected got;
  List.iter
    (fun p ->
      let at = what ^ ", " ^ Addr.prefix_to_string p in
      agree ("best after " ^ at) show_path
        (Option.to_list (Ref_rib.best ref_rib p))
        (Option.to_list (Bgp.Rib.best rib p));
      agree ("candidates after " ^ at) show_path (Ref_rib.candidates ref_rib p)
        (Bgp.Rib.candidates rib p))
    (Option.value touched ~default:universe);
  let folded fold =
    List.rev (fold ~init:[] ~f:(fun acc p path -> Bgp.Rib.Best_changed (p, path) :: acc))
  in
  agree ("fold_best after " ^ what) show_change
    (folded (Ref_rib.fold_best ref_rib))
    (folded (Bgp.Rib.fold_best rib));
  agree_int ("size after " ^ what) (Ref_rib.size ref_rib) (Bgp.Rib.size rib);
  agree_int ("path_count after " ^ what) (Ref_rib.path_count ref_rib) (Bgp.Rib.path_count rib);
  agree ("digest after " ^ what) Fun.id [ Ref_rib.digest ref_rib ] [ Bgp.Rib.digest rib ];
  Array.iter
    (fun (s : Bgp.Rib.source) ->
      agree_int ("stale_count " ^ s.key ^ " after " ^ what)
        (Ref_rib.stale_count ref_rib ~key:s.key)
        (Bgp.Rib.stale_count rib ~key:s.key))
    rib_sources

(* MED compares only paths from one neighbouring AS, so the decision
   process is not transitive: a (AS 7, MED 10, eBGP, router id 0.9.9.9)
   beats c (AS 8, eBGP, 1.1.1.1) on router id, c beats b (AS 7, MED 5,
   iBGP) on eBGP, and b beats a on MED. The best path then depends on
   the order of the fold, newest path first, so every install order, and
   each withdrawal after it, must give the reference's best path and
   candidates. *)
let test_rib_med_cycle_order () =
  let a = (src ~rid:"0.9.9.9" "a" "10.0.0.4", attrs ~path:[ 7 ] ~med:10 ())
  and b = (src ~ebgp:false ~rid:"2.2.2.2" "b" "10.0.0.3", attrs ~path:[ 7 ] ~med:5 ())
  and c = (src ~rid:"1.1.1.1" "c" "10.0.0.1", attrs ~path:[ 8 ] ()) in
  let p = pfx "10.9.0.0/16" in
  let agree_on what rib ref_rib =
    agree ("best " ^ what) show_path
      (Option.to_list (Ref_rib.best ref_rib p))
      (Option.to_list (Bgp.Rib.best rib p));
    agree ("candidates " ^ what) show_path (Ref_rib.candidates ref_rib p)
      (Bgp.Rib.candidates rib p)
  in
  let orders = [ [ a; b; c ]; [ a; c; b ]; [ b; a; c ]; [ b; c; a ]; [ c; a; b ]; [ c; b; a ] ] in
  let bests =
    List.map
      (fun order ->
        let rib = Bgp.Rib.create () and ref_rib = Ref_rib.create () in
        let what = String.concat "," (List.map (fun (s, _) -> s.Bgp.Rib.key) order) in
        List.iter
          (fun (s, at) ->
            ignore (Bgp.Rib.update rib s p (Some at));
            ignore (Ref_rib.update ref_rib s p (Some at)))
          order;
        agree_on ("after " ^ what) rib ref_rib;
        let best = Option.map (fun b -> b.Bgp.Rib.source.key) (Bgp.Rib.best rib p) in
        List.iter
          (fun (s, _) ->
            ignore (Bgp.Rib.update rib s p None);
            ignore (Ref_rib.update ref_rib s p None);
            agree_on ("after " ^ what ^ " less " ^ s.Bgp.Rib.key) rib ref_rib)
          order;
        best)
      orders
  in
  checkb "the install order picks the best" true
    (List.length (List.sort_uniq compare bests) > 1)

let sources_agree rib ref_rib =
  Array.iter
    (fun (s : Bgp.Rib.source) ->
      let source_key = s.key in
      agree ("digest of " ^ source_key) Fun.id
        [ Ref_rib.digest ~source_key ref_rib ]
        [ Bgp.Rib.digest ~source_key rib ])
    rib_sources

let prop_rib_matches_reference =
  QCheck.Test.make ~name:"flat RIB matches the hash-table reference" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_rib_op ops))
       QCheck.Gen.(list_size (int_range 10 60) gen_rib_op))
    (fun ops ->
      let rib = Bgp.Rib.create () and ref_rib = Ref_rib.create () in
      List.iter (step_agrees rib ref_rib) ops;
      sources_agree rib ref_rib;
      true)

(* --- Policy -------------------------------------------------------------- *)

let test_policy_empty_accepts () =
  let a = attrs () in
  checkb "accepted unchanged" true
    (Bgp.Policy.apply Bgp.Policy.empty (pfx "10.0.0.0/8") a = Some a)

let test_policy_reject_rule () =
  let pol =
    Bgp.Policy.make
      [ Bgp.Policy.reject_rule [ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ] ]
  in
  checkb "inside rejected" true
    (Bgp.Policy.apply pol (pfx "10.1.0.0/16") (attrs ()) = None);
  checkb "outside accepted" true
    (Bgp.Policy.apply pol (pfx "192.168.0.0/16") (attrs ()) <> None)

let test_policy_rewrite () =
  let pol =
    Bgp.Policy.make
      [
        Bgp.Policy.accept_rule
          ~conds:[ Bgp.Policy.Match_as_in_path 65010 ]
          [
            Bgp.Policy.Set_local_pref 250;
            Bgp.Policy.Add_community (65000, 7);
            Bgp.Policy.Prepend_as (65099, 2);
          ];
      ]
  in
  match Bgp.Policy.apply pol (pfx "10.0.0.0/8") (attrs ()) with
  | Some a ->
      checkb "lp set" true (a.Bgp.Attrs.local_pref = Some 250);
      checkb "community" true (Bgp.Attrs.has_community a (65000, 7));
      checki "prepended twice" 3 (Bgp.Attrs.as_path_length a)
  | None -> Alcotest.fail "rejected"

let test_policy_first_match_wins () =
  let pol =
    Bgp.Policy.make
      [
        Bgp.Policy.accept_rule
          ~conds:[ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ]
          [ Bgp.Policy.Set_local_pref 111 ];
        Bgp.Policy.reject_rule [ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ];
      ]
  in
  checkb "first rule applied" true
    (match Bgp.Policy.apply pol (pfx "10.5.0.0/16") (attrs ()) with
    | Some a -> a.Bgp.Attrs.local_pref = Some 111
    | None -> false)

let test_policy_default_reject () =
  let pol = Bgp.Policy.make ~default:`Reject [] in
  checkb "default reject" true
    (Bgp.Policy.apply pol (pfx "10.0.0.0/8") (attrs ()) = None)

(* --- Speaker pairs ------------------------------------------------------- *)

let speaker_pair ?(asn_a = 65001) ?(asn_b = 65002) ?profile_a ?profile_b
    ?(policy_out_a = Bgp.Policy.empty) ?hooks_b () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "ra" and b = Network.add_node net "rb" in
  let _, addr_a, addr_b = Network.connect net ~delay:(Time.us 100) a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  let spk_a =
    Bgp.Speaker.create ?profile:profile_a ~stack:sa ~local_asn:asn_a
      ~router_id:addr_a ()
  in
  let spk_b =
    Bgp.Speaker.create ?profile:profile_b ?hooks:hooks_b ~stack:sb
      ~local_asn:asn_b ~router_id:addr_b ()
  in
  let pc_a =
    {
      (Bgp.Speaker.default_peer_config ~remote_asn:asn_b ~vrf:"v0"
         ~remote_addr:addr_b ())
      with
      policy_out = policy_out_a;
    }
  in
  let pc_b =
    Bgp.Speaker.default_peer_config ~remote_asn:asn_a ~passive:true ~vrf:"v0"
      ~remote_addr:addr_a ()
  in
  let peer_a = Bgp.Speaker.add_peer spk_a pc_a in
  let peer_b = Bgp.Speaker.add_peer spk_b pc_b in
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  (eng, spk_a, spk_b, peer_a, peer_b)

let test_speaker_establishes () =
  let eng, _, _, peer_a, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  checkb "a established" true (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established);
  checkb "b established" true (Bgp.Speaker.peer_state peer_b = Bgp.Session.Established)

let test_speaker_route_propagation () =
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24"; pfx "198.51.100.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "two routes learned" 2 (Bgp.Rib.size rib_b);
  match Bgp.Rib.best rib_b (pfx "203.0.113.0/24") with
  | Some best ->
      checkb "as path prepended" true
        (Bgp.Attrs.path_contains best.Bgp.Rib.attrs 65001);
      checkb "no local pref on ebgp" true
        (best.Bgp.Rib.attrs.Bgp.Attrs.local_pref = None)
  | None -> Alcotest.fail "route missing"

let test_speaker_withdraw_propagates () =
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 2);
  Bgp.Speaker.withdraw_origin spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 2);
  checki "withdrawn at peer" 0 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_full_table_on_join () =
  (* Routes originated before the session exists are synced at open. *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Bgp.Speaker.originate spk_a ~vrf:"v0"
    (List.init 50 (fun i -> pfx (Printf.sprintf "10.%d.0.0/16" i)));
  Engine.run_for eng (Time.sec 10);
  checki "initial sync" 50 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_loop_detection () =
  (* a originates with b's ASN already in path: b must reject. *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  let poisoned =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 65002 ] ]
      ~next_hop:(ip "192.0.2.9") ()
  in
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:poisoned [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  checki "looped route rejected" 0 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_keepalives_maintain_session () =
  let eng, _, _, peer_a, _ = speaker_pair () in
  Engine.run_for eng (Time.minutes 10);
  checkb "still up after 10 minutes" true
    (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established);
  match Bgp.Speaker.peer_session peer_a with
  | Some s -> checkb "keepalives flowed" true (Bgp.Session.keepalives_in s > 10)
  | None -> Alcotest.fail "no session"

let test_speaker_hold_timer_fires () =
  (* Silence b entirely: its node goes down, so a's keepalives are
     dropped unanswered and no RST ever comes back. a must take the
     session down within the hold time, by the hold timer or by its TCP
     retransmission limit, whichever fires first. *)
  let eng, _, spk_b, peer_a, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  checkb "established before the silence" true
    (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established);
  let down = ref None in
  Bgp.Speaker.on_peer_down peer_a (fun r -> down := Some (r, Engine.now eng));
  let silenced_at = Engine.now eng in
  Node.set_up (Tcp.stack_node (Bgp.Speaker.stack spk_b)) false;
  Engine.run_for eng (Time.sec (Bgp.Session.default_hold_time + 10));
  match !down with
  | None -> Alcotest.fail "session still up past the hold time"
  | Some (reason, at) ->
      (* A hold expiry is reported as the NOTIFICATION it sends, code 4
         (Hold Timer Expired). *)
      checkb "down by hold expiry or transport reset" true
        (match reason with
        | Bgp.Session.Notification_sent { code = 4; _ }
        | Bgp.Session.Transport_failed _ ->
            true
        | _ -> false);
      checkb "within the hold time plus 1 s" true
        (Time.diff at silenced_at
        <= Time.sec (Bgp.Session.default_hold_time + 1));
      checkb "not Established" true
        (Bgp.Speaker.peer_state peer_a <> Bgp.Session.Established)

let test_speaker_ibgp_rules () =
  let eng, spk_a, spk_b, _, _ = speaker_pair ~asn_a:65001 ~asn_b:65001 () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  match Bgp.Rib.best rib_b (pfx "203.0.113.0/24") with
  | Some best ->
      checkb "no ASN prepended on iBGP" false
        (Bgp.Attrs.path_contains best.Bgp.Rib.attrs 65001);
      checkb "local pref carried" true
        (best.Bgp.Rib.attrs.Bgp.Attrs.local_pref = Some 100)
  | None -> Alcotest.fail "iBGP route missing"

let test_speaker_policy_in_rejects () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "ra" and b = Network.add_node net "rb" in
  let _, addr_a, addr_b = Network.connect net a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  let spk_a = Bgp.Speaker.create ~stack:sa ~local_asn:65001 ~router_id:addr_a () in
  let spk_b = Bgp.Speaker.create ~stack:sb ~local_asn:65002 ~router_id:addr_b () in
  ignore
    (Bgp.Speaker.add_peer spk_a
       (Bgp.Speaker.default_peer_config ~remote_asn:65002 ~vrf:"v0"
          ~remote_addr:addr_b ()));
  ignore
    (Bgp.Speaker.add_peer spk_b
       {
         (Bgp.Speaker.default_peer_config ~remote_asn:65001 ~passive:true
            ~vrf:"v0" ~remote_addr:addr_a ())
         with
         policy_in =
           Bgp.Policy.make
             [
               Bgp.Policy.reject_rule
                 [ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ];
             ];
       });
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "10.1.0.0/16"; pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "only unfiltered route" 1 (Bgp.Rib.size rib_b);
  checkb "filtered prefix absent" true
    (Bgp.Rib.best rib_b (pfx "10.1.0.0/16") = None)

let test_speaker_transit_three_as () =
  (* A(65001) -- B(65002) -- C(65003): C learns A's route with path
     [65002; 65001]. *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let na = Network.add_node net "a"
  and nb = Network.add_node net "b"
  and nc = Network.add_node net "c" in
  let _, a_ab, b_ab = Network.connect net na nb in
  let _, b_bc, c_bc = Network.connect net nb nc in
  let sa = Tcp.create_stack na
  and sb = Tcp.create_stack nb
  and sc = Tcp.create_stack nc in
  let spk_a = Bgp.Speaker.create ~stack:sa ~local_asn:65001 ~router_id:a_ab () in
  let spk_b = Bgp.Speaker.create ~stack:sb ~local_asn:65002 ~router_id:b_ab () in
  let spk_c = Bgp.Speaker.create ~stack:sc ~local_asn:65003 ~router_id:c_bc () in
  ignore
    (Bgp.Speaker.add_peer spk_a
       (Bgp.Speaker.default_peer_config ~remote_asn:65002 ~vrf:"v0"
          ~remote_addr:b_ab ()));
  ignore
    (Bgp.Speaker.add_peer spk_b
       (Bgp.Speaker.default_peer_config ~remote_asn:65001 ~passive:true
          ~vrf:"v0" ~remote_addr:a_ab ()));
  ignore
    (Bgp.Speaker.add_peer spk_b
       (Bgp.Speaker.default_peer_config ~remote_asn:65003 ~vrf:"v0"
          ~remote_addr:c_bc ()));
  ignore
    (Bgp.Speaker.add_peer spk_c
       (Bgp.Speaker.default_peer_config ~remote_asn:65002 ~passive:true
          ~vrf:"v0" ~remote_addr:b_bc ()));
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Bgp.Speaker.start spk_c;
  Engine.run_for eng (Time.sec 10);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 10);
  match Bgp.Rib.best (Bgp.Speaker.rib spk_c ~vrf:"v0") (pfx "203.0.113.0/24") with
  | Some best -> (
      match best.Bgp.Rib.attrs.Bgp.Attrs.as_path with
      | [ Bgp.Attrs.Seq [ 65002; 65001 ] ] -> ()
      | _ ->
          Alcotest.failf "unexpected path %a" Bgp.Attrs.pp best.Bgp.Rib.attrs)
  | None -> Alcotest.fail "transit route missing"

let test_speaker_nlri_aggregation () =
  (* 1000 routes with identical attributes pack into a handful of
     messages regardless of profile (standard NLRI aggregation). *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0"
    (List.init 1000 (fun i ->
         pfx (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))));
  Engine.run_for eng (Time.sec 30);
  checki "peer learned all" 1000 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"));
  checkb
    (Printf.sprintf "aggregated into few messages (%d)"
       (Bgp.Speaker.messages_sent spk_a))
    true
    (Bgp.Speaker.messages_sent spk_a < 20)

let test_speaker_update_packing_cost () =
  (* Update packing makes the Nth peer cheap: with five peers the packed
     sender finishes a 2000-route flood measurably earlier. *)
  let finish_time ~packing =
    let profile =
      { Bgp.Speaker.default_profile with Bgp.Speaker.update_packing = packing }
    in
    let eng = Engine.create () in
    let net = Network.create eng in
    let hub = Network.add_node net ~forwarding:true "hub" in
    let dut = Network.add_node net "dut" in
    let _, _, dut_addr = Network.connect net hub dut in
    Node.add_route dut (Addr.prefix_of_string "0.0.0.0/0")
      (List.nth (Node.ifaces dut) 0).Node.remote;
    let s_dut = Tcp.create_stack dut in
    let spk_dut =
      Bgp.Speaker.create ~profile ~stack:s_dut ~local_asn:64900
        ~router_id:dut_addr ()
    in
    for i = 0 to 4 do
      let n = Network.add_node net (Printf.sprintf "p%d" i) in
      let _, _, p_addr = Network.connect net hub n in
      Node.add_route n (Addr.prefix_of_string "0.0.0.0/0")
        (List.nth (Node.ifaces n) 0).Node.remote;
      let st = Tcp.create_stack n in
      let spk =
        Bgp.Speaker.create ~stack:st ~local_asn:(65000 + i)
          ~router_id:p_addr ()
      in
      ignore
        (Bgp.Speaker.add_peer spk
           (Bgp.Speaker.default_peer_config ~remote_asn:64900 ~passive:true
              ~vrf:"v0" ~remote_addr:dut_addr ()));
      Bgp.Speaker.start spk;
      ignore
        (Bgp.Speaker.add_peer spk_dut
           (Bgp.Speaker.default_peer_config ~remote_asn:(65000 + i) ~vrf:"v0"
              ~remote_addr:p_addr ()))
    done;
    Bgp.Speaker.start spk_dut;
    Engine.run_for eng (Time.sec 10);
    let t0 = Engine.now eng in
    Bgp.Speaker.originate spk_dut ~vrf:"v0"
      (List.init 2000 (fun i ->
           pfx (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))));
    Engine.run_for eng (Time.sec 60);
    checki "all peers served" (5 * 2000) (Bgp.Speaker.updates_sent spk_dut);
    Time.diff (Bgp.Speaker.last_tx_handoff spk_dut) t0
  in
  let packed = finish_time ~packing:true in
  let unpacked = finish_time ~packing:false in
  checkb
    (Printf.sprintf "packed (%s) faster than unpacked (%s)"
       (Time.to_string packed) (Time.to_string unpacked))
    true (packed < unpacked)

let test_speaker_graceful_restart_retains_routes () =
  let eng, spk_a, spk_b, _peer_a, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "learned" 1 (Bgp.Rib.size rib_b);
  (* Kill the transport underneath b (simulate a's crash): b marks the
     route stale instead of withdrawing. *)
  (match Bgp.Speaker.peer_conn peer_b with
  | Some c -> Tcp.abort c
  | None -> Alcotest.fail "no session");
  Engine.run_for eng (Time.sec 2);
  checkb "peer session down" true
    (Bgp.Speaker.peer_state peer_b <> Bgp.Session.Established);
  checki "route retained (stale)" 1 (Bgp.Rib.size rib_b);
  checki "marked stale" 1
    (Bgp.Rib.stale_count rib_b ~key:(Bgp.Speaker.peer_source_key peer_b));
  (* After the restart time with no re-establishment... the peers
     actually reconnect automatically here, which refreshes the route via
     the full-table sync + End-of-RIB. *)
  Engine.run_for eng (Time.minutes 3);
  checki "route refreshed after reconnect" 1 (Bgp.Rib.size rib_b);
  checki "no stale left" 0
    (Bgp.Rib.stale_count rib_b ~key:(Bgp.Speaker.peer_source_key peer_b))

let test_speaker_no_export_community () =
  (* RFC 1997: NO_EXPORT routes stay inside the AS (never to eBGP
     peers); NO_ADVERTISE routes go nowhere. *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  let tagged comm =
    Bgp.Attrs.add_community
      (Bgp.Attrs.make ~next_hop:(ip "192.0.2.9") ())
      comm
  in
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:(tagged Bgp.Attrs.no_export)
    [ pfx "203.0.113.0/24" ];
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:(tagged Bgp.Attrs.no_advertise)
    [ pfx "198.51.100.0/24" ];
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "192.0.2.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "only the untagged route crossed the eBGP boundary" 1
    (Bgp.Rib.size rib_b);
  checkb "plain route present" true
    (Bgp.Rib.best rib_b (pfx "192.0.2.0/24") <> None)

let test_speaker_no_export_allowed_on_ibgp () =
  (* NO_EXPORT still propagates over iBGP (same AS). *)
  let eng, spk_a, spk_b, _, _ = speaker_pair ~asn_a:65001 ~asn_b:65001 () in
  Engine.run_for eng (Time.sec 5);
  let attrs =
    Bgp.Attrs.add_community
      (Bgp.Attrs.make ~next_hop:(ip "192.0.2.9") ())
      Bgp.Attrs.no_export
  in
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  checki "iBGP peer received the NO_EXPORT route" 1
    (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_request_refresh () =
  (* The peer's ROUTE-REFRESH (RFC 2918) makes the speaker resend exactly
     its table, here one route. *)
  let eng, spk_a, spk_b, _, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let before = Bgp.Speaker.updates_sent spk_a in
  (match Bgp.Speaker.peer_session peer_b with
  | Some s -> Bgp.Session.send s (Bgp.Msg.Route_refresh { afi = 1; safi = 1 })
  | None -> Alcotest.fail "no session");
  Engine.run_for eng (Time.sec 5);
  checki "peer resent its one route on refresh" 1
    (Bgp.Speaker.updates_sent spk_a - before);
  checki "table still consistent" 1
    (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_connection_collision () =
  (* Both sides configured active: simultaneous opens collide and exactly
     one session must survive on each side (RFC 4271 §6.8). *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "ra" and b = Network.add_node net "rb" in
  let _, addr_a, addr_b = Network.connect net ~delay:(Time.us 100) a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  let spk_a = Bgp.Speaker.create ~stack:sa ~local_asn:65001 ~router_id:addr_a () in
  let spk_b = Bgp.Speaker.create ~stack:sb ~local_asn:65002 ~router_id:addr_b () in
  let peer_a =
    Bgp.Speaker.add_peer spk_a
      (Bgp.Speaker.default_peer_config ~remote_asn:65002 ~vrf:"v0"
         ~remote_addr:addr_b ())
  in
  let peer_b =
    Bgp.Speaker.add_peer spk_b
      (Bgp.Speaker.default_peer_config ~remote_asn:65001 ~vrf:"v0"
         ~remote_addr:addr_a ())
  in
  (* Start both actively at the same instant. *)
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Engine.run_for eng (Time.sec 20);
  checkb "a established" true
    (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established);
  checkb "b established" true
    (Bgp.Speaker.peer_state peer_b = Bgp.Session.Established);
  (* And the session actually works. *)
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  checki "routes flow" 1 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_route_refresh () =
  let eng, spk_a, spk_b, _, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  (* b asks for a refresh; a resends its table (idempotent for b). *)
  (match Bgp.Speaker.peer_session peer_b with
  | Some s -> Bgp.Session.send s (Bgp.Msg.Route_refresh { afi = 1; safi = 1 })
  | None -> Alcotest.fail "no session");
  let before = Bgp.Speaker.messages_sent spk_a in
  Engine.run_for eng (Time.sec 5);
  checkb "a resent table" true (Bgp.Speaker.messages_sent spk_a > before);
  checki "b table unchanged" 1 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

(* --- Update packing against the sort-based packer ------------------------ *)

(* The packer as it was when it sorted every advert: a stable sort by
   [Attrs.compare], then run-grouping. [Speaker.build_messages] must keep
   producing its frames byte for byte and in the same order. *)
module Ref = struct
  let group_by_attrs adverts =
    let sorted =
      List.sort (fun (_, a) (_, b) -> Bgp.Attrs.compare a b) adverts
    in
    let rec go groups current_attrs current_pfx = function
      | [] ->
          if current_pfx = [] then List.rev groups
          else List.rev ((current_attrs, List.rev current_pfx) :: groups)
      | (pfx, attrs) :: rest ->
          if Bgp.Attrs.equal attrs current_attrs then
            go groups current_attrs (pfx :: current_pfx) rest
          else
            go
              ((current_attrs, List.rev current_pfx) :: groups)
              attrs [ pfx ] rest
    in
    match sorted with
    | [] -> []
    | (pfx, attrs) :: rest -> go [] attrs [ pfx ] rest

  let nlri_capacity attrs =
    let probe =
      Bgp.Msg.encode
        (Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri = [] })
    in
    max 1 ((Bgp.Msg.max_size - String.length probe - 8) / 5)

  let withdraw_capacity = (Bgp.Msg.max_size - 32) / 5

  let rec chunks n = function
    | [] -> []
    | l ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (k - 1) (x :: acc) rest
        in
        let head, rest = take n [] l in
        head :: chunks n rest

  let build_messages adverts withdraws =
    let withdraw_msgs =
      chunks withdraw_capacity withdraws
      |> List.map (fun w ->
             Bgp.Msg.Update { withdrawn = w; attrs = None; nlri = [] })
    in
    let advert_msgs =
      group_by_attrs adverts
      |> List.concat_map (fun (attrs, pfxs) ->
             chunks (nlri_capacity attrs) pfxs
             |> List.map (fun nlri ->
                    Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri }))
    in
    withdraw_msgs @ advert_msgs
end

let frames msgs = List.map Bgp.Msg.encode msgs

(* Frame lists are compared by the first differing index: printing
   thousands of binary frames helps nobody. *)
let check_frames what expected got =
  let rec first_diff i = function
    | e :: es, g :: gs -> if String.equal e g then first_diff (i + 1) (es, gs) else Some i
    | [], [] -> None
    | _ -> Some i
  in
  match first_diff 0 (expected, got) with
  | None -> ()
  | Some i ->
      Alcotest.failf "%s: frames differ at index %d (%d expected, %d got)" what i
        (List.length expected) (List.length got)

(* The export rewrite a's eBGP peer sees, then a's policy_out. *)
let ebgp_export ~asn ~next_hop policy pfx attrs =
  Bgp.Policy.apply policy pfx
    (Bgp.Attrs.with_local_pref
       (Bgp.Attrs.with_next_hop (Bgp.Attrs.prepend attrs asn) next_hop)
       None)

let test_speaker_packing_matches_reference () =
  (* A non-empty policy_out rewrites the attrs of every prefix under
     10.1.0.0/16 into a fresh record, so each batch carries two
     interleaved attribute sets per origination: one shared physically,
     one only structurally. Both the full-table sync and incremental
     exports must send the reference packer's frames. *)
  let policy =
    Bgp.Policy.make
      [
        Bgp.Policy.accept_rule
          ~conds:[ Bgp.Policy.Match_prefix_within (pfx "10.1.0.0/16") ]
          [ Bgp.Policy.Set_local_pref 250 ];
      ]
  in
  let received = ref [] in
  let hooks_b =
    {
      Bgp.Speaker.no_hooks with
      on_rx_replicate =
        (fun _ msg ~raw:_ ~inferred_ack:_ ->
          match msg with
          | Bgp.Msg.Update _ -> received := Bgp.Msg.encode msg :: !received
          | _ -> ());
    }
  in
  let eng, spk_a, spk_b, _, peer_b = speaker_pair ~policy_out_a:policy ~hooks_b () in
  let rid_a = (Bgp.Speaker.peer_cfg peer_b).Bgp.Speaker.remote_addr in
  let export = ebgp_export ~asn:65001 ~next_hop:rid_a policy in
  let attrs med =
    Bgp.Attrs.make ~med ~as_path:[ Bgp.Attrs.Seq [ 64512 ] ] ~next_hop:rid_a ()
  in
  let p28 i =
    Addr.prefix (Addr.of_octets 10 (i mod 3) (i / 3 mod 256) (i / 768 * 16)) 28
  in
  let take_received () =
    let got = List.rev !received in
    received := [];
    got
  in
  (* Before the session: installed now, sent by the full-table sync. *)
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:(attrs 1)
    (List.init 2400 (fun i -> p28 (2 * i)));
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:(attrs 2)
    (List.init 2400 (fun i -> p28 ((2 * i) + 1)));
  Engine.run_for eng (Time.sec 10);
  let full =
    Bgp.Rib.fold_best (Bgp.Speaker.rib spk_a ~vrf:"v0") ~init:[]
      ~f:(fun acc p path ->
        match export p path.Bgp.Rib.attrs with
        | Some a -> (p, a) :: acc
        | None -> acc)
  in
  let expected = frames (Ref.build_messages full [] @ [ Bgp.Msg.end_of_rib ]) in
  checkb "full table straddles a frame" true (List.length expected > 5);
  check_frames "full table" expected (take_received ());
  (* Incremental: one origination, then one withdrawal batch. *)
  let batch = List.init 2500 (fun i -> p28 (4800 + i)) in
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:(attrs 3) batch;
  Engine.run_for eng (Time.sec 5);
  let adverts =
    List.filter_map (fun p -> Option.map (fun a -> (p, a)) (export p (attrs 3))) batch
  in
  check_frames "origination" (frames (Ref.build_messages adverts [])) (take_received ());
  let gone = List.filteri (fun i _ -> i mod 3 = 0) batch in
  Bgp.Speaker.withdraw_origin spk_a ~vrf:"v0" gone;
  Engine.run_for eng (Time.sec 5);
  check_frames "withdrawal" (frames (Ref.build_messages [] gone)) (take_received ());
  checki "peer table" (7300 - List.length gone)
    (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

(* Allocation of [Speaker.originate] per route with one established eBGP
   peer: the RIB install, the export rewrite and the update packing
   ([Prof.Profiler.allocated_bytes] is exact and deterministic for a
   fixed program and compiler). Measured with OCaml 5.1.1, 64-bit, no
   flambda, dune's default dev profile: rewriting the attrs once per
   prefix and sorting every advert cost 1,064 B/route (read with
   [Gc.allocated_bytes], which misses young words between minor
   collections); rewriting them once per attribute set and grouping
   without a sort cost 342.7 B/route, of which the node pool, a change
   list and its reversal, and the advert tuples, lists and reversals
   were most. One pass from the RIB's change buffer to the NLRI lists,
   with no node for a single-path prefix, costs 107.2 B/route: the
   slot arrays' growth and one NLRI list cell per prefix. The bound is
   half the 342.7 B reading; another compiler or optimiser setting moves
   these figures and may need it re-measured. *)
let originate_bytes_per_route_bound = 342.7 /. 2.

let test_speaker_originate_allocation () =
  let eng, spk_a, spk_b, _, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  let groups = 40 and per_group = 500 in
  let n = groups * per_group in
  let batches =
    List.init groups (fun g ->
        ( Bgp.Attrs.make ~med:g
            ~as_path:[ Bgp.Attrs.Seq [ 64512; 64513 ] ]
            ~communities:[ (64512, g) ]
            ~next_hop:(Bgp.Speaker.peer_cfg peer_b).Bgp.Speaker.remote_addr (),
          List.init per_group (fun i ->
              let j = (g * per_group) + i in
              Addr.prefix (Addr.of_octets 10 (j / 256) (j mod 256) 0) 24) ))
  in
  let a0 = Prof.Profiler.allocated_bytes () in
  List.iter
    (fun (attrs, pfxs) -> Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs pfxs)
    batches;
  let per_route = (Prof.Profiler.allocated_bytes () -. a0) /. float_of_int n in
  Engine.run_for eng (Time.sec 30);
  checki "peer learned all" n (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"));
  if per_route > originate_bytes_per_route_bound then
    Alcotest.failf "originate allocates %.0f B/route (bound %.0f)" per_route
      originate_bytes_per_route_bound

(* --- Properties ---------------------------------------------------------- *)

let gen_prefix =
  QCheck.Gen.(
    map2
      (fun raw len -> Addr.prefix (Addr.of_int raw) len)
      (int_bound 0xFFFFFFF) (int_range 8 30))

let gen_attrs =
  QCheck.Gen.(
    let* path_len = int_range 0 6 in
    let* path = list_size (return path_len) (int_range 1 65000) in
    let* med = opt (int_bound 1000) in
    let* lp = opt (int_bound 1000) in
    let* ncomm = int_range 0 3 in
    let* comms = list_size (return ncomm) (pair (int_bound 65535) (int_bound 65535)) in
    let* nh = int_bound 0xFFFFFFF in
    let* origin = oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ] in
    return
      (Bgp.Attrs.make ~origin
         ~as_path:(if path = [] then [] else [ Bgp.Attrs.Seq path ])
         ?med ?local_pref:lp ~communities:comms
         ~next_hop:(Addr.of_int nh) ()))

let gen_update =
  QCheck.Gen.(
    let* nw = int_range 0 10 in
    let* withdrawn = list_size (return nw) gen_prefix in
    let* nn = int_range 0 20 in
    let* nlri = list_size (return nn) gen_prefix in
    let* attrs = gen_attrs in
    return
      (Bgp.Msg.Update
         {
           withdrawn;
           attrs = (if nlri = [] then None else Some attrs);
           nlri;
         }))

let prop_update_roundtrip =
  QCheck.Test.make ~name:"update encode/decode roundtrip" ~count:300
    (QCheck.make gen_update)
    (fun msg ->
      match Bgp.Msg.decode (Bgp.Msg.encode msg) with
      | Ok m -> m = msg
      | Error _ -> false)

let prop_framer_arbitrary_chunking =
  QCheck.Test.make ~name:"framer independent of chunk boundaries" ~count:50
    QCheck.(pair (QCheck.make gen_update) (int_range 1 100))
    (fun (msg, chunk) ->
      let stream = String.concat "" (List.init 5 (fun _ -> Bgp.Msg.encode msg)) in
      let framer = Bgp.Msg.Framer.create () in
      let got = ref 0 in
      let pos = ref 0 in
      while !pos < String.length stream do
        let len = min chunk (String.length stream - !pos) in
        List.iter
          (function Ok _ -> incr got | Error _ -> ())
          (Bgp.Msg.Framer.push framer (String.sub stream !pos len));
        pos := !pos + len
      done;
      !got = 5)

let prop_decision_deterministic =
  (* The best path must not depend on insertion order. *)
  QCheck.Test.make ~name:"decision process is order-independent" ~count:100
    QCheck.(pair (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 2 6) gen_attrs)) int)
    (fun (attrs_list, seed) ->
      let p = pfx "203.0.113.0/24" in
      let mk_src i =
        src
          ~rid:(Printf.sprintf "9.9.9.%d" (i + 1))
          (Printf.sprintf "p%d" i)
          (Printf.sprintf "10.0.0.%d" (i + 1))
      in
      let paths = List.mapi (fun i a -> (mk_src i, a)) attrs_list in
      let best_of order =
        let rib = Bgp.Rib.create () in
        List.iter (fun (s, a) -> ignore (Bgp.Rib.update rib s p (Some a))) order;
        match Bgp.Rib.best rib p with
        | Some b -> b.Bgp.Rib.source.Bgp.Rib.key
        | None -> "none"
      in
      let shuffled =
        (* Fisher–Yates over the seeded generator. *)
        let arr = Array.of_list paths in
        let r = Rng.create seed in
        for i = Array.length arr - 1 downto 1 do
          let j = Rng.int r (i + 1) in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp
        done;
        Array.to_list arr
      in
      String.equal (best_of paths) (best_of shuffled))

let prop_policy_rejects_are_stable =
  QCheck.Test.make ~name:"policy apply is deterministic" ~count:100
    (QCheck.make gen_attrs)
    (fun a ->
      let pol =
        Bgp.Policy.make
          [
            Bgp.Policy.accept_rule
              ~conds:[ Bgp.Policy.Match_as_in_path 42 ]
              [ Bgp.Policy.Set_local_pref 7 ];
          ]
      in
      let p = pfx "10.0.0.0/8" in
      Bgp.Policy.apply pol p a = Bgp.Policy.apply pol p a)

(* Advert lists for the packer: attributes from a small pool, some of them
   structurally equal but physically distinct copies, in interleaved runs
   whose lengths straddle a frame's NLRI capacity; pools past the
   packer's window of open groups; withdrawal counts around a frame's
   capacity. *)
let gen_packing_case =
  QCheck.Gen.(
    let* npool = oneof [ int_range 1 4; int_range 15 24 ] in
    let* pool = list_size (return npool) gen_attrs in
    let pool = Array.of_list pool in
    let* nruns = int_range 0 30 in
    let* runs =
      list_size (return nruns)
        (triple (int_bound (npool - 1)) (oneof [ int_range 1 4; int_range 1 900 ]) bool)
    in
    let* adverts =
      flatten_l
        (List.map
           (fun (k, len, copy) ->
             let a = pool.(k) in
             let a = if copy then Bgp.Attrs.with_med a a.Bgp.Attrs.med else a in
             list_size (return len) (map (fun p -> (p, a)) gen_prefix))
           runs)
    in
    let cap = Ref.withdraw_capacity in
    let* nw = oneofl [ 0; 1; cap; cap + 1; (2 * cap) + 7 ] in
    let* withdraws = list_size (return nw) gen_prefix in
    return (List.concat adverts, withdraws))

(* A change buffer holding [adverts] as best-path changes and
   [withdraws] as withdrawals, the two interleaved: the packer puts every
   withdrawal first whatever their places in the batch. *)
let change_buffer adverts withdraws =
  let buf = Bgp.Rib.Changes.create () in
  let source = src "packer" "192.0.2.9" in
  let scratch = Bgp.Rib.create () in
  let rec go i adverts withdraws =
    match (adverts, withdraws) with
    | (p, attrs) :: adverts, _ when i mod 3 <> 0 || withdraws = [] ->
        Bgp.Rib.Changes.add buf p { Bgp.Rib.source; attrs; stale = false };
        go (i + 1) adverts withdraws
    | _, w :: withdraws ->
        (* A withdrawal change as the table reports one. *)
        ignore (Bgp.Rib.update scratch source w (Some full_attrs));
        Bgp.Rib.withdraw scratch source w buf;
        go (i + 1) adverts withdraws
    | _, [] -> ()
  in
  go 0 adverts withdraws;
  buf

let prop_packing_matches_reference =
  QCheck.Test.make ~name:"update packing matches the sort-based packer" ~count:60
    (QCheck.make
       ~print:(fun (a, w) ->
         Printf.sprintf "%d adverts, %d withdrawals" (List.length a) (List.length w))
       gen_packing_case)
    (fun (adverts, withdraws) ->
      frames (Bgp.Speaker.pack_changes (change_buffer adverts withdraws))
      = frames (Ref.build_messages adverts withdraws))

(* --- One-pass export against the list-based pipeline ---------------------- *)

(* A speaker with five established sessions: two sources of UPDATEs (one
   eBGP, one iBGP) and three more targets (eBGP, eBGP behind an
   out-policy that rejects one /16 and rewrites another, iBGP). Every
   frame it hands a session and every checkpoint-hook call is recorded;
   the expected ones are computed the way the list-based pipeline did:
   [Ref_rib] reports each batch's changes, each goes to the hook in
   order, and each target gets [Ref.build_messages] of its exported
   adverts and the withdrawals. *)
let dut_asn = 65001

let export_policy =
  Bgp.Policy.make
    [
      Bgp.Policy.reject_rule [ Bgp.Policy.Match_prefix_within (pfx "10.1.0.0/16") ];
      Bgp.Policy.accept_rule
        ~conds:[ Bgp.Policy.Match_prefix_within (pfx "10.2.0.0/16") ]
        [ Bgp.Policy.Set_med (Some 99) ];
    ]

(* Each remote's ASN and the DUT's out-policy towards it. Remotes 0 and
   1 are the sources. *)
let rig_remotes =
  [|
    (65002, Bgp.Policy.empty);
    (dut_asn, Bgp.Policy.empty);
    (65003, Bgp.Policy.empty);
    (65004, export_policy);
    (dut_asn, Bgp.Policy.empty);
  |]

type target = {
  peer : Bgp.Speaker.peer;
  asn : int;
  policy : Bgp.Policy.t;
  local : Addr.t;  (** The DUT's address on the link. *)
  source : Bgp.Rib.source;  (** The DUT's view of the remote as a source. *)
}

type export_rig = {
  x_eng : Engine.t;
  dut : Bgp.Speaker.t;
  dut_rid : Addr.t;
  targets : target array;
  sent : (string, string list) Hashtbl.t;  (** Target key -> frames, newest first. *)
  hooked : Bgp.Rib.change list ref;  (** Newest first. *)
}

let export_rig () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let d = Network.add_node net "dut" in
  let links =
    Array.mapi
      (fun i _ ->
        let r = Network.add_node net (Printf.sprintf "r%d" i) in
        let _, local, remote = Network.connect net ~delay:(Time.us 100) d r in
        (r, local, remote))
      rig_remotes
  in
  let sent = Hashtbl.create 8 and hooked = ref [] in
  let hooks =
    {
      Bgp.Speaker.no_hooks with
      on_tx_replicate =
        (fun peer msg raw k ->
          (match msg with
          | Bgp.Msg.Update _ ->
              let key = Bgp.Speaker.peer_source_key peer in
              Hashtbl.replace sent key
                (raw :: Option.value ~default:[] (Hashtbl.find_opt sent key))
          | _ -> ());
          k ());
      on_rib_change = (fun ~vrf:_ ch -> hooked := ch :: !hooked);
    }
  in
  let _, dut_rid, _ = links.(0) in
  let dut =
    Bgp.Speaker.create ~hooks ~stack:(Tcp.create_stack d) ~local_asn:dut_asn
      ~router_id:dut_rid ()
  in
  let targets =
    Array.mapi
      (fun i (asn, policy) ->
        let r, local, remote = links.(i) in
        let spk =
          Bgp.Speaker.create ~stack:(Tcp.create_stack r) ~local_asn:asn ~router_id:remote ()
        in
        ignore
          (Bgp.Speaker.add_peer spk
             (Bgp.Speaker.default_peer_config ~remote_asn:dut_asn ~passive:true
                ~vrf:"v0" ~remote_addr:local ()));
        Bgp.Speaker.start spk;
        let peer =
          Bgp.Speaker.add_peer dut
            {
              (Bgp.Speaker.default_peer_config ~remote_asn:asn ~local_addr:local
                 ~vrf:"v0" ~remote_addr:remote ())
              with
              policy_out = policy;
            }
        in
        let source =
          {
            Bgp.Rib.key = Bgp.Speaker.peer_source_key peer;
            peer_asn = asn;
            peer_addr = remote;
            router_id = remote;
            ebgp = asn <> dut_asn;
          }
        in
        { peer; asn; policy; local; source })
      rig_remotes
  in
  Bgp.Speaker.start dut;
  Engine.run_for eng (Time.sec 5);
  Array.iter
    (fun t -> checkb "established" true (Bgp.Speaker.peer_state t.peer = Bgp.Session.Established))
    targets;
  Hashtbl.reset sent;
  { x_eng = eng; dut; dut_rid; targets; sent; hooked }

type export_op =
  | Upd of int * int list * int list * Bgp.Attrs.t
      (** A source's UPDATE: its withdrawals and NLRI (repeats allowed). *)
  | Orig of int list * Bgp.Attrs.t
  | Unorig of int list
  | Drop of int  (** Stop a source's session and start it again. *)

(* 3,000 /28s spread over 10.0/16 (exported as is), 10.1/16 (rejected
   towards the filtered target) and 10.2/16 (rewritten there), so a
   batch's adverts interleave attribute sets. *)
let x_prefix i =
  let i = i mod 3000 in
  Addr.prefix (Addr.of_octets 10 (i mod 3) (i / 3 mod 256) (i / 768 * 16)) 28

let gen_export_attrs =
  QCheck.Gen.(
    let* a = gen_rib_attrs in
    let* c = frequency [ (6, return []); (1, return [ Bgp.Attrs.no_export ]); (1, return [ Bgp.Attrs.no_advertise ]) ] in
    return { a with Bgp.Attrs.communities = c })

let gen_export_op =
  QCheck.Gen.(
    let idxs = oneof [ list_size (int_range 0 40) (int_bound 200); list_size (int_range 700 1700) (int_bound 2999) ] in
    frequency
      [
        ( 6,
          let* s = int_bound 1 and* w = list_size (int_range 0 30) (int_bound 200) and* n = idxs in
          let* a = gen_export_attrs in
          return (Upd (s, w, n, a)) );
        (2, map2 (fun n a -> Orig (n, a)) idxs gen_export_attrs);
        (1, map (fun n -> Unorig n) (list_size (int_range 0 60) (int_bound 200)));
        (1, map (fun s -> Drop s) (int_bound 1));
      ])

let show_export_op = function
  | Upd (s, w, n, _) -> Printf.sprintf "upd s%d -%d +%d" s (List.length w) (List.length n)
  | Orig (n, _) -> Printf.sprintf "orig +%d" (List.length n)
  | Unorig n -> Printf.sprintf "unorig -%d" (List.length n)
  | Drop s -> Printf.sprintf "drop s%d" s

(* The list-based pipeline's export of [changes] to [t]. *)
let reference_export t changes ~full =
  let ebgp = t.asn <> dut_asn in
  let export (path : Bgp.Rib.path) =
    let a = path.attrs in
    if Bgp.Attrs.has_community a Bgp.Attrs.no_advertise then None
    else if ebgp && Bgp.Attrs.has_community a Bgp.Attrs.no_export then None
    else if (not ebgp) && (not path.source.ebgp) && path.source.key <> "local/v0" then None
    else if ebgp then
      Some
        (Bgp.Attrs.with_local_pref
           (Bgp.Attrs.with_next_hop (Bgp.Attrs.prepend a dut_asn) t.local)
           None)
    else
      Some
        (Bgp.Attrs.with_local_pref a
           (Some (Option.value a.Bgp.Attrs.local_pref ~default:100)))
  in
  let adverts, withdraws =
    List.fold_left
      (fun (adv, wd) -> function
        | Bgp.Rib.Best_changed (p, path) -> (
            match Option.bind (export path) (Bgp.Policy.apply t.policy p) with
            | Some a -> ((p, a) :: adv, wd)
            | None -> (adv, wd))
        | Bgp.Rib.Best_withdrawn p -> (adv, p :: wd))
      ([], []) changes
  in
  (* The full-table sync listed its adverts newest first. *)
  let adverts = if full then adverts else List.rev adverts in
  let msgs = Ref.build_messages adverts (List.rev withdraws) in
  frames (if full then msgs @ [ Bgp.Msg.end_of_rib ] else msgs)

let prop_export_matches_list_pipeline =
  QCheck.Test.make ~name:"one-pass export matches the list pipeline" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_export_op ops))
       QCheck.Gen.(list_size (int_range 2 7) gen_export_op))
    (fun ops ->
      let rig = export_rig () in
      let ref_rib = Ref_rib.create () in
      let local =
        {
          Bgp.Rib.key = "local/v0";
          peer_asn = dut_asn;
          peer_addr = rig.dut_rid;
          router_id = rig.dut_rid;
          ebgp = false;
        }
      in
      let expected_sent = Hashtbl.create 8 and expected_hooked = ref [] in
      let expect key fs =
        Hashtbl.replace expected_sent key
          (Option.value ~default:[] (Hashtbl.find_opt expected_sent key) @ fs)
      in
      let batch changes ~exclude =
        expected_hooked := !expected_hooked @ changes;
        if changes <> [] then
          Array.iter
            (fun t ->
              if t.source.key <> exclude then
                expect t.source.key (reference_export t changes ~full:false))
            rig.targets
      in
      let updates src pfxs attrs =
        List.filter_map (fun i -> Ref_rib.update ref_rib src (x_prefix i) attrs) pfxs
      in
      List.iter
        (fun op ->
          (match op with
          | Upd (s, w, n, a) ->
              let t = rig.targets.(s) in
              let u =
                {
                  Bgp.Msg.withdrawn = List.map x_prefix w;
                  attrs = (if n = [] then None else Some a);
                  nlri = List.map x_prefix n;
                }
              in
              Bgp.Speaker.replay_update rig.dut t.peer u;
              let withdrawn = updates t.source w None in
              let installed =
                if n = [] || Bgp.Attrs.path_contains a dut_asn then []
                else updates t.source n (Some a)
              in
              batch (withdrawn @ installed) ~exclude:t.source.key
          | Orig (n, a) ->
              Bgp.Speaker.originate rig.dut ~vrf:"v0" ~attrs:a (List.map x_prefix n);
              batch (updates local n (Some a)) ~exclude:local.key
          | Unorig n ->
              Bgp.Speaker.withdraw_origin rig.dut ~vrf:"v0" (List.map x_prefix n);
              batch (updates local n None) ~exclude:local.key
          | Drop s ->
              let t = rig.targets.(s) in
              Bgp.Speaker.stop_peer rig.dut t.peer;
              batch (Ref_rib.remove_source ref_rib ~key:t.source.key) ~exclude:t.source.key;
              Engine.run_for rig.x_eng (Time.sec 1);
              Bgp.Speaker.start_peer rig.dut t.peer;
              let table =
                Ref_rib.fold_best ref_rib ~init:[] ~f:(fun acc p path ->
                    if path.Bgp.Rib.source.key = t.source.key then acc
                    else Bgp.Rib.Best_changed (p, path) :: acc)
              in
              expect t.source.key (reference_export t (List.rev table) ~full:true));
          Engine.run_for rig.x_eng (Time.sec 2);
          let what = show_export_op op in
          agree ("hook calls after " ^ what) show_change !expected_hooked
            (List.rev !(rig.hooked));
          Array.iter
            (fun t ->
              let got = List.rev (Option.value ~default:[] (Hashtbl.find_opt rig.sent t.source.key)) in
              let want = Option.value ~default:[] (Hashtbl.find_opt expected_sent t.source.key) in
              if got <> want then
                QCheck.Test.fail_reportf "%s: frames to %s differ (%d expected, %d sent)" what
                  t.source.key (List.length want) (List.length got))
            rig.targets;
          let folded fold =
            List.rev (fold ~init:[] ~f:(fun acc p path -> Bgp.Rib.Best_changed (p, path) :: acc))
          in
          agree ("RIB after " ^ what) show_change (folded (Ref_rib.fold_best ref_rib))
            (folded (Bgp.Rib.fold_best (Bgp.Speaker.rib rig.dut ~vrf:"v0"))))
        ops;
      true)

let () =
  Alcotest.run "bgp"
    [
      ( "attrs",
        [
          Alcotest.test_case "path length" `Quick test_attrs_path_length;
          Alcotest.test_case "prepend" `Quick test_attrs_prepend;
          Alcotest.test_case "communities" `Quick test_attrs_communities;
        ] );
      ( "codec",
        [
          Alcotest.test_case "keepalive" `Quick test_codec_keepalive;
          Alcotest.test_case "open" `Quick test_codec_open;
          Alcotest.test_case "open AS4" `Quick test_codec_open_as4;
          Alcotest.test_case "update" `Quick test_codec_update;
          Alcotest.test_case "update 2-byte ASN" `Quick test_codec_update_as2;
          Alcotest.test_case "notification" `Quick test_codec_notification;
          Alcotest.test_case "route refresh" `Quick test_codec_route_refresh;
          Alcotest.test_case "end of rib" `Quick test_codec_end_of_rib;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "max size" `Quick test_codec_max_size_enforced;
          Alcotest.test_case "framer reassembly" `Quick test_framer_reassembles;
          Alcotest.test_case "framer poisons" `Quick test_framer_poisons_on_error;
          Alcotest.test_case "framer many frames per push" `Quick
            test_framer_many_frames_per_push;
        ] );
      ( "rib",
        [
          Alcotest.test_case "install/withdraw" `Quick test_rib_install_withdraw;
          Alcotest.test_case "local pref" `Quick test_rib_local_pref_wins;
          Alcotest.test_case "shorter path" `Quick test_rib_shorter_path_wins;
          Alcotest.test_case "med same neighbor" `Quick
            test_rib_med_same_neighbor_only;
          Alcotest.test_case "ebgp over ibgp" `Quick test_rib_ebgp_over_ibgp;
          Alcotest.test_case "remove source" `Quick test_rib_remove_source;
          Alcotest.test_case "stale lifecycle" `Quick test_rib_stale_lifecycle;
          Alcotest.test_case "hash spreads aligned prefixes" `Quick
            test_rib_hash_spreads_aligned;
          Alcotest.test_case "live words per prefix" `Quick test_rib_live_words;
          Alcotest.test_case "fold_best allocation" `Quick
            test_rib_fold_best_allocation;
          Alcotest.test_case "digest allocation" `Quick test_rib_digest_allocation;
          Alcotest.test_case "reserve grows no further" `Quick test_rib_reserve_size;
          Alcotest.test_case "growth allocation per prefix" `Quick
            test_rib_growth_allocation;
          Alcotest.test_case "MED cycle follows install order" `Quick
            test_rib_med_cycle_order;
        ] );
      ( "policy",
        [
          Alcotest.test_case "empty accepts" `Quick test_policy_empty_accepts;
          Alcotest.test_case "reject rule" `Quick test_policy_reject_rule;
          Alcotest.test_case "rewrite" `Quick test_policy_rewrite;
          Alcotest.test_case "first match wins" `Quick
            test_policy_first_match_wins;
          Alcotest.test_case "default reject" `Quick test_policy_default_reject;
        ] );
      ( "speaker",
        [
          Alcotest.test_case "establishes" `Quick test_speaker_establishes;
          Alcotest.test_case "route propagation" `Quick
            test_speaker_route_propagation;
          Alcotest.test_case "withdraw propagates" `Quick
            test_speaker_withdraw_propagates;
          Alcotest.test_case "full table on join" `Quick
            test_speaker_full_table_on_join;
          Alcotest.test_case "loop detection" `Quick test_speaker_loop_detection;
          Alcotest.test_case "keepalives maintain" `Quick
            test_speaker_keepalives_maintain_session;
          Alcotest.test_case "hold timer downs a silent peer" `Quick
            test_speaker_hold_timer_fires;
          Alcotest.test_case "ibgp rules" `Quick test_speaker_ibgp_rules;
          Alcotest.test_case "policy in" `Quick test_speaker_policy_in_rejects;
          Alcotest.test_case "three-AS transit" `Quick
            test_speaker_transit_three_as;
          Alcotest.test_case "nlri aggregation" `Quick
            test_speaker_nlri_aggregation;
          Alcotest.test_case "update packing cost" `Slow
            test_speaker_update_packing_cost;
          Alcotest.test_case "graceful restart" `Quick
            test_speaker_graceful_restart_retains_routes;
          Alcotest.test_case "route refresh" `Quick test_speaker_route_refresh;
          Alcotest.test_case "connection collision" `Quick
            test_speaker_connection_collision;
          Alcotest.test_case "NO_EXPORT / NO_ADVERTISE" `Quick
            test_speaker_no_export_community;
          Alcotest.test_case "NO_EXPORT over iBGP" `Quick
            test_speaker_no_export_allowed_on_ibgp;
          Alcotest.test_case "request refresh" `Quick
            test_speaker_request_refresh;
          Alcotest.test_case "packing matches reference" `Quick
            test_speaker_packing_matches_reference;
          Alcotest.test_case "originate allocation per route" `Quick
            test_speaker_originate_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_update_roundtrip;
            prop_framer_arbitrary_chunking;
            prop_decision_deterministic;
            prop_policy_rejects_are_stable;
            prop_packing_matches_reference;
            prop_rib_matches_reference;
            prop_export_matches_list_pipeline;
          ] );
    ]
