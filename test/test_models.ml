(* Model-based property tests: the optimized data structures (chunked
   Stream_buf, hashtable RIB with cached best paths) are checked against
   naive reference implementations over random operation sequences. *)

open Netsim

(* --- Stream_buf vs a plain string ---------------------------------------- *)

type sb_op =
  | Append of string
  | Drop_until of int (* relative offset into the stream *)
  | Read of int * int (* relative seq, len *)

let gen_sb_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (4, map (fun s -> Append s) (string_size (int_range 1 200)));
           (2, map (fun n -> Drop_until n) (int_bound 2000));
           (4, map2 (fun a b -> Read (a, b)) (int_bound 2000) (int_range 1 300));
         ]))

let prop_stream_buf_matches_reference =
  QCheck.Test.make ~name:"Stream_buf behaves like a string" ~count:300
    (QCheck.make gen_sb_ops)
    (fun ops ->
      let base = 1000 in
      let sb = Tcp.Stream_buf.create base in
      (* Reference: the whole stream as one string plus a start marker. *)
      let stream = Buffer.create 256 in
      let start = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Append s ->
              Tcp.Stream_buf.append sb s;
              Buffer.add_string stream s;
              true
          | Drop_until rel ->
              let total = Buffer.length stream in
              let target = min rel total in
              if target > !start then start := target;
              Tcp.Stream_buf.drop_until sb (base + target);
              Tcp.Stream_buf.start_seq sb = base + !start
              && Tcp.Stream_buf.end_seq sb = base + total
          | Read (rel, len) ->
              let total = Buffer.length stream in
              let seq = !start + rel in
              if seq > total then true (* out of written range: skip *)
              else begin
                let expect_len = min len (total - seq) in
                let expected = Buffer.sub stream seq expect_len in
                String.equal expected
                  (Tcp.Stream_buf.read sb ~seq:(base + seq) ~len)
              end)
        ops)

let prop_stream_buf_chunks_tile =
  QCheck.Test.make ~name:"chunks_from tiles the retained range" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 20) (string_size (int_range 1 100)))
           (int_bound 500)))
    (fun (appends, drop) ->
      let sb = Tcp.Stream_buf.create 0 in
      List.iter (Tcp.Stream_buf.append sb) appends;
      Tcp.Stream_buf.drop_until sb drop;
      let start = Tcp.Stream_buf.start_seq sb in
      let chunks = Tcp.Stream_buf.chunks_from sb ~seq:start in
      let rec tiles pos = function
        | [] -> pos = Tcp.Stream_buf.end_seq sb
        | (seq, data) :: rest ->
            seq = pos && tiles (pos + String.length data) rest
      in
      tiles start chunks)

(* --- RIB vs a reference assoc-map ----------------------------------------- *)

let mk_source i =
  {
    Bgp.Rib.key = Printf.sprintf "peer%d" i;
    peer_asn = 65000 + i;
    peer_addr = Addr.of_octets 10 0 0 (1 + i);
    router_id = Addr.of_octets 9 9 9 (1 + i);
    ebgp = i mod 2 = 0;
  }

let mk_prefix i = Addr.prefix (Addr.of_octets 100 0 (i land 0xFF) 0) 24

let mk_attrs seed =
  Bgp.Attrs.make
    ~as_path:[ Bgp.Attrs.Seq (List.init (1 + (seed mod 4)) (fun k -> 50_000 + seed + k)) ]
    ?local_pref:(if seed mod 3 = 0 then Some (100 + (seed mod 50)) else None)
    ~next_hop:(Addr.of_octets 10 0 0 (1 + (seed mod 5)))
    ()

type rib_op = Install of int * int * int | Withdraw of int * int | Remove_peer of int

let gen_rib_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           ( 6,
             map3
               (fun p x a -> Install (p, x, a))
               (int_bound 4) (int_bound 9) (int_bound 1000) );
           (3, map2 (fun p x -> Withdraw (p, x)) (int_bound 4) (int_bound 9));
           (1, map (fun p -> Remove_peer p) (int_bound 4));
         ]))

(* Reference: ((peer, prefix) -> attrs) association list. *)
let reference_apply model = function
  | Install (p, x, a) ->
      ((p, x), mk_attrs a) :: List.remove_assoc (p, x) model
  | Withdraw (p, x) -> List.remove_assoc (p, x) model
  | Remove_peer p -> List.filter (fun ((p', _), _) -> p' <> p) model

let prop_rib_matches_reference =
  QCheck.Test.make ~name:"RIB size/candidates match a reference map" ~count:300
    (QCheck.make gen_rib_ops)
    (fun ops ->
      let rib = Bgp.Rib.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          (match op with
          | Install (p, x, a) ->
              ignore
                (Bgp.Rib.update rib (mk_source p) (mk_prefix x)
                   (Some (mk_attrs a)))
          | Withdraw (p, x) ->
              ignore (Bgp.Rib.update rib (mk_source p) (mk_prefix x) None)
          | Remove_peer p ->
              Bgp.Rib.remove_source rib ~key:(mk_source p).Bgp.Rib.key
                (Bgp.Rib.Changes.create ()));
          model := reference_apply !model op)
        ops;
      (* Same live prefixes... *)
      let model_prefixes =
        List.sort_uniq compare (List.map (fun ((_, x), _) -> x) !model)
      in
      Bgp.Rib.size rib = List.length model_prefixes
      && Bgp.Rib.path_count rib = List.length !model
      (* ...and per prefix, the same candidate set with the best at the
         head being genuinely maximal under [Rib.better]. *)
      && List.for_all
           (fun x ->
             let cands = Bgp.Rib.candidates rib (mk_prefix x) in
             let model_paths =
               List.filter (fun ((_, x'), _) -> x' = x) !model
             in
             List.length cands = List.length model_paths
             &&
             match (Bgp.Rib.best rib (mk_prefix x), cands) with
             | Some best, first :: rest ->
                 String.equal best.Bgp.Rib.source.Bgp.Rib.key
                   first.Bgp.Rib.source.Bgp.Rib.key
                 && List.for_all
                      (fun other -> not (Bgp.Rib.better other best))
                      rest
             | None, [] -> true
             | _ -> false)
           model_prefixes)

let prop_rib_best_is_maximal =
  QCheck.Test.make ~name:"best path is maximal under the decision order"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 2 8) (int_bound 1000)))
    (fun seeds ->
      let rib = Bgp.Rib.create () in
      let p = mk_prefix 0 in
      List.iteri
        (fun i a -> ignore (Bgp.Rib.update rib (mk_source i) p (Some (mk_attrs a))))
        seeds;
      match Bgp.Rib.best rib p with
      | Some best ->
          List.for_all
            (fun cand -> not (Bgp.Rib.better cand best))
            (Bgp.Rib.candidates rib p)
      | None -> false)

(* --- Framer vs whole-frame decoding ----------------------------------------- *)

let prop_framer_equals_batch_decode =
  QCheck.Test.make ~name:"framer over a chopped stream = direct decode"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 1 8) (int_bound 1000)) (int_range 1 64)))
    (fun (seeds, chop) ->
      let msgs =
        List.map
          (fun seed ->
            if seed mod 3 = 0 then Bgp.Msg.Keepalive
            else
              Bgp.Msg.Update
                {
                  withdrawn = [];
                  attrs = Some (mk_attrs seed);
                  nlri = [ mk_prefix seed ];
                })
          seeds
      in
      let stream = String.concat "" (List.map (fun m -> Bgp.Msg.encode m) msgs) in
      let framer = Bgp.Msg.Framer.create () in
      let got = ref [] in
      let pos = ref 0 in
      while !pos < String.length stream do
        let len = min chop (String.length stream - !pos) in
        List.iter
          (function
            | Ok (m, _) -> got := m :: !got
            | Error _ -> ())
          (Bgp.Msg.Framer.push framer (String.sub stream !pos len));
        pos := !pos + len
      done;
      List.rev !got = msgs)

let () =
  Alcotest.run "models"
    [
      ( "stream_buf",
        List.map QCheck_alcotest.to_alcotest
          [ prop_stream_buf_matches_reference; prop_stream_buf_chunks_tile ] );
      ( "rib",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rib_matches_reference; prop_rib_best_is_maximal ] );
      ( "framer",
        List.map QCheck_alcotest.to_alcotest [ prop_framer_equals_batch_decode ]
      );
    ]
