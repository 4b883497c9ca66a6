type conn_id = string

let conn_id ~service ~vrf = service ^ "|" ^ vrf

(* Stream-scoped records (out/in/ack/outtrim/part) are keyed by the
   connection *epoch*: each successor TCP connection of the same peer
   gets a fresh key space, so a half-dead write from a torn-down stream
   can never be grafted onto the next connection's sequence numbers at
   recovery time. Epoch 0 maps to the bare conn id, which keeps fresh
   bring-up keys (and every pre-epoch store dump) unchanged. *)
let epoch_cid cid epoch =
  if epoch = 0 then cid else String.concat "@" [ cid; string_of_int epoch ]

let meta_key cid = "meta|" ^ cid
let ack_key cid = "ack|" ^ cid

(* Blits [s] into [b] at [pos]; the position after it. *)
let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* [tag ^ cid ^ "|"] followed by [n] as [Printf]'s [%012d] renders it
   (zeros go between the sign and the digits), in one [Bytes]: the
   padding keeps the store's lexicographic scan order numeric. *)
let padded_key tag cid n =
  let s = string_of_int n in
  let sl = String.length s and sign = if n < 0 then 1 else 0 in
  let w = max 12 sl in
  let b = Bytes.create (String.length tag + String.length cid + 1 + w) in
  let pos = put b 0 tag in
  let pos = put b pos cid in
  let pos = put b pos "|" in
  let pos = put b pos (if n < 0 then "-" else "") in
  Bytes.fill b pos (w - sl) '0';
  Bytes.blit_string s sign b (pos + w - sl) (sl - sign);
  Bytes.unsafe_to_string b

let in_key cid seq = padded_key "in|" cid seq
let in_prefix cid = "in|" ^ cid ^ "|"
let out_key cid off = padded_key "out|" cid off
let out_prefix cid = "out|" ^ cid ^ "|"
let outtrim_key cid = "outtrim|" ^ cid
let bfd_key cid = "bfd|" ^ cid
let part_key cid = "part|" ^ cid

let rib_key ~service ~vrf prefix =
  let b =
    Bytes.create
      (String.length "rib|||" + String.length service + String.length vrf
     + Netsim.Addr.prefix_width prefix)
  in
  let pos = put b 0 "rib|" in
  let pos = put b pos service in
  let pos = put b pos "|" in
  let pos = put b pos vrf in
  let pos = put b pos "|" in
  ignore (Netsim.Addr.put_prefix b pos prefix);
  Bytes.unsafe_to_string b

let rib_prefix ~service = "rib|" ^ service ^ "|"

let tail_int ~prefix key =
  let plen = String.length prefix in
  if String.length key > plen && String.sub key 0 plen = prefix then
    int_of_string_opt (String.sub key plen (String.length key - plen))
  else None

let seq_of_in_key cid key = tail_int ~prefix:(in_prefix cid) key
let offset_of_out_key cid key = tail_int ~prefix:(out_prefix cid) key

let vrf_prefix_of_rib_key ~service key =
  let pfx = rib_prefix ~service in
  let plen = String.length pfx in
  if String.length key > plen && String.sub key 0 plen = pfx then
    let rest = String.sub key plen (String.length key - plen) in
    match String.index_opt rest '|' with
    | Some i -> (
        let vrf = String.sub rest 0 i in
        let pstr = String.sub rest (i + 1) (String.length rest - i - 1) in
        match Netsim.Addr.prefix_of_string pstr with
        | p -> Some (vrf, p)
        | exception Invalid_argument _ -> None)
    | None -> None
  else None

(* --- Hex ----------------------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

(* The two lowercase hex digits of byte [v] at [b.[pos]], [b.[pos+1]]. *)
let put_hex_byte b pos v =
  Bytes.unsafe_set b pos (String.unsafe_get hex_digits ((v lsr 4) land 0xF));
  Bytes.unsafe_set b (pos + 1) (String.unsafe_get hex_digits (v land 0xF))

(* Hex of [s.[off .. off+len)] into [b] from [pos]. *)
let blit_hex s off b pos len =
  for i = 0 to len - 1 do
    put_hex_byte b (pos + (2 * i)) (Char.code (String.unsafe_get s (off + i)))
  done

let hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  blit_hex s 0 b 0 n;
  Bytes.unsafe_to_string b

(* Strictly [0-9a-fA-F]; anything else (a sign, a space, OCaml's [_]
   digit separator) is -1. *)
let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

let unhex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd hex length"
  else begin
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i = n / 2 then Ok (Bytes.unsafe_to_string b)
      else
        let hi = hex_value s.[2 * i] and lo = hex_value s.[(2 * i) + 1] in
        if hi < 0 || lo < 0 then Error "bad hex"
        else begin
          Bytes.set b i (Char.chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0
  end

(* --- Meta ---------------------------------------------------------------- *)

type meta = {
  epoch : int; (* connection epoch naming the stream-scoped key space *)
  vrf : string;
  local_addr : Netsim.Addr.t;
  local_port : int;
  peer_addr : Netsim.Addr.t;
  peer_port : int;
  local_asn : int;
  hold_time : int;
  as4 : bool;
  iss : int;
  irs : int;
  mss : int;
  rcv_wnd : int;
  peer_open_raw : string;
  peer_supports_gr : bool;
  peer_gr_restart_time : int;
}

let encode_meta m =
  String.concat ";"
    [
      "ep=" ^ string_of_int m.epoch;
      "vrf=" ^ m.vrf;
      "la=" ^ Netsim.Addr.to_string m.local_addr;
      "lp=" ^ string_of_int m.local_port;
      "pa=" ^ Netsim.Addr.to_string m.peer_addr;
      "pp=" ^ string_of_int m.peer_port;
      "asn=" ^ string_of_int m.local_asn;
      "hold=" ^ string_of_int m.hold_time;
      "as4=" ^ (if m.as4 then "1" else "0");
      "iss=" ^ string_of_int m.iss;
      "irs=" ^ string_of_int m.irs;
      "mss=" ^ string_of_int m.mss;
      "rwnd=" ^ string_of_int m.rcv_wnd;
      "gr=" ^ (if m.peer_supports_gr then "1" else "0");
      "grt=" ^ string_of_int m.peer_gr_restart_time;
      "open=" ^ hex m.peer_open_raw;
    ]

let fields s =
  String.split_on_char ';' s
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
             Some
               ( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
         | None -> None)

let decode_meta s =
  let f = fields s in
  let get k = List.assoc_opt k f in
  let geti k = Option.bind (get k) int_of_string_opt in
  match
    ( get "vrf", get "la", geti "lp", get "pa", geti "pp", geti "asn",
      geti "hold", get "as4", geti "iss", geti "irs", geti "mss",
      geti "rwnd", get "gr", geti "grt", get "open" )
  with
  | ( Some vrf, Some la, Some local_port, Some pa, Some peer_port,
      Some local_asn, Some hold_time, Some as4, Some iss, Some irs, Some mss,
      Some rcv_wnd, Some gr, Some peer_gr_restart_time, Some open_hex ) -> (
      match unhex open_hex with
      | Error e -> Error e
      | Ok peer_open_raw -> (
          try
            Ok
              {
                epoch = (match geti "ep" with Some e -> e | None -> 0);
                vrf;
                local_addr = Netsim.Addr.of_string la;
                local_port;
                peer_addr = Netsim.Addr.of_string pa;
                peer_port;
                local_asn;
                hold_time;
                as4 = as4 = "1";
                iss;
                irs;
                mss;
                rcv_wnd;
                peer_open_raw;
                peer_supports_gr = gr = "1";
                peer_gr_restart_time;
              }
          with Invalid_argument e -> Error e))
  | _ -> Error "missing meta field"

(* --- In records ------------------------------------------------------------ *)

(* "<ack>:" is the head and the frame as received the tail, so the
   frame is stored and read back without a copy. *)
let encode_in_record ~ack ~raw =
  (* lint: allow h1 — once per received message, which is one in| record; the frame itself is not copied *)
  Store.Value.v ~head:(string_of_int ack ^ ":") ~tail:raw

let decode_in_record v =
  let head = Store.Value.head v in
  let n = String.length head in
  if n = 0 || head.[n - 1] <> ':' then Error "no ack separator"
  else
    match int_of_string_opt (String.sub head 0 (n - 1)) with
    | None -> Error "bad ack"
    | Some ack -> Ok (ack, Store.Value.tail v)

(* --- RIB entries ------------------------------------------------------------ *)

(* A record is "sk=<key>;pasn=<asn>;paddr=<addr>;rid=<addr>;ebgp=<0|1>;u="
   followed by the hex of the route's one-prefix UPDATE frame. It is
   stored split before the NLRI: the head, everything up to it, is the
   same for every prefix of one UPDATE that has the same NLRI size (the
   frame's length digits sit in the head), and the tail is the NLRI's
   hex. *)

(* The record's source fields and the hex of [frame.[0 .. upto)], in one
   right-sized [Bytes]. *)
let rib_record (src : Bgp.Rib.source) frame ~upto =
  let pasn = string_of_int src.Bgp.Rib.peer_asn in
  let paddr = Netsim.Addr.to_string src.Bgp.Rib.peer_addr in
  let rid = Netsim.Addr.to_string src.Bgp.Rib.router_id in
  let fields =
    String.length "sk=;pasn=;paddr=;rid=;ebgp=0;u="
    + String.length src.Bgp.Rib.key + String.length pasn
    + String.length paddr + String.length rid
  in
  let b = Bytes.create (fields + (2 * upto)) in
  let pos = put b 0 "sk=" in
  let pos = put b pos src.Bgp.Rib.key in
  let pos = put b pos ";pasn=" in
  let pos = put b pos pasn in
  let pos = put b pos ";paddr=" in
  let pos = put b pos paddr in
  let pos = put b pos ";rid=" in
  let pos = put b pos rid in
  let pos = put b pos (if src.Bgp.Rib.ebgp then ";ebgp=1;u=" else ";ebgp=0;u=") in
  blit_hex frame 0 b pos upto;
  b

let rib_frame prefix attrs =
  let nlri =
    (* lint: allow h1 — the record's own one-prefix UPDATE: one cons per encoder head rebuild, never per cached record *)
    [ prefix ]
  in
  Bgp.Msg.encode (Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri })

(* NLRI bytes of a one-prefix UPDATE: the length octet and the
   significant octets of the base. *)
let nlri_size (prefix : Netsim.Addr.prefix) = 1 + ((prefix.Netsim.Addr.len + 7) / 8)

(* The encoder keeps the heads of the last (source, attributes) pair it
   saw, one per NLRI size, and writes per prefix only the NLRI's hex.
   Physical equality is the hit test: a structurally equal but distinct
   attribute set rebuilds the heads, which is correct, just not
   cheaper. *)
type rib_head = {
  h_src : Bgp.Rib.source;
  h_attrs : Bgp.Attrs.t;
  h_base : string; (* the head first built, for the NLRI that built it *)
  h_heads : string array; (* by NLRI size - 1; "" until built *)
  h_len_at : int; (* offset of the frame length's four hex digits *)
  h_frame : int; (* frame bytes before the NLRI *)
}

type rib_encoder = { mutable last : rib_head option }

let rib_encoder () = { last = None }

let marker_hex = 2 * 16
let max_nlri = 5 (* a /32: the length octet and four base octets *)

let rib_head src prefix attrs =
  let frame = rib_frame prefix attrs in
  let upto = String.length frame - nlri_size prefix in
  let head = Bytes.unsafe_to_string (rib_record src frame ~upto) in
  let heads = Array.make max_nlri "" in
  heads.(nlri_size prefix - 1) <- head;
  {
    h_src = src;
    h_attrs = attrs;
    h_base = head;
    h_heads = heads;
    h_len_at = String.length head - (2 * upto) + marker_hex;
    h_frame = upto;
  }

(* The head for an NLRI of [nlri] bytes: a built one with the frame
   length rewritten. *)
let head_for h nlri =
  let total = h.h_frame + nlri in
  if total > Bgp.Msg.max_size then
    invalid_arg
      (Printf.sprintf "Msg.encode: %d bytes exceeds max %d" total
         Bgp.Msg.max_size);
  let b = Bytes.of_string h.h_base in
  put_hex_byte b h.h_len_at (total lsr 8);
  put_hex_byte b (h.h_len_at + 2) total;
  let head = Bytes.unsafe_to_string b in
  h.h_heads.(nlri - 1) <- head;
  head

let encode_rib_entry_with enc src (prefix : Netsim.Addr.prefix) attrs =
  let h =
    match enc.last with
    | Some h when h.h_src == src && h.h_attrs == attrs -> h
    | Some _ | None ->
        let h = rib_head src prefix attrs in
        enc.last <- Some h;
        h
  in
  let nlri = nlri_size prefix in
  let head =
    match h.h_heads.(nlri - 1) with "" -> head_for h nlri | head -> head
  in
  let b = Bytes.create (2 * nlri) in
  put_hex_byte b 0 prefix.Netsim.Addr.len;
  let base = Netsim.Addr.to_int prefix.Netsim.Addr.base in
  for i = 0 to nlri - 2 do
    put_hex_byte b (2 + (2 * i)) (base lsr (24 - (8 * i)))
  done;
  Store.Value.v ~head ~tail:(Bytes.unsafe_to_string b)

let encode_rib_entry src prefix attrs =
  Store.Value.to_string (encode_rib_entry_with (rib_encoder ()) src prefix attrs)

(* A head's source and attributes, and the NLRI size its frame length
   leaves room for. *)
type rib_fields = {
  f_src : Bgp.Rib.source;
  f_attrs : Bgp.Attrs.t;
  f_nlri : int;
}

(* Decodes a head once: its frame, completed with a placeholder NLRI of
   the size the length field declares, must decode as a one-prefix
   UPDATE with attributes. *)
let decode_rib_head head =
  let f = fields head in
  let get k = List.assoc_opt k f in
  match (get "sk", get "pasn", get "paddr", get "rid", get "ebgp", get "u") with
  | Some key, Some pasn, Some paddr, Some rid, Some ebgp, Some u_hex -> (
      match (int_of_string_opt pasn, unhex u_hex) with
      | Some peer_asn, Ok raw when String.length raw >= 19 -> (
          let nlri = ((Char.code raw.[16] lsl 8) lor Char.code raw.[17]) - String.length raw in
          if nlri < 1 || nlri > max_nlri then Error "bad rib head length"
          else
            let placeholder = Bytes.make nlri '\000' in
            Bytes.set placeholder 0 (Char.chr (8 * (nlri - 1)));
            match Bgp.Msg.decode (raw ^ Bytes.unsafe_to_string placeholder) with
            | Ok (Bgp.Msg.Update { attrs = Some attrs; nlri = [ _ ]; _ }) -> (
                try
                  Ok
                    {
                      f_src =
                        {
                          Bgp.Rib.key;
                          peer_asn;
                          peer_addr = Netsim.Addr.of_string paddr;
                          router_id = Netsim.Addr.of_string rid;
                          ebgp = ebgp = "1";
                        };
                      f_attrs = attrs;
                      f_nlri = nlri;
                    }
                with Invalid_argument e -> Error e)
            | Ok _ -> Error "unexpected rib payload"
            | Error e -> Error (Format.asprintf "%a" Bgp.Msg.pp_error e))
      | _ -> Error "bad rib fields")
  | _ -> Error "missing rib field"

(* The NLRI of [f_nlri] bytes in [tail], read as [Bgp.Msg] reads one. *)
let prefix_of_tail f_nlri tail =
  match unhex tail with
  | Ok raw when String.length raw = f_nlri ->
      let len = Char.code raw.[0] in
      if len > 32 || 1 + ((len + 7) / 8) <> f_nlri then Error "bad rib tail"
      else
        let base = ref 0 in
        for i = 1 to f_nlri - 1 do
          base := !base lor (Char.code raw.[i] lsl (24 - (8 * (i - 1))))
        done;
        Ok (Netsim.Addr.prefix (Netsim.Addr.of_int !base) len)
  | Ok _ | Error _ -> Error "bad rib tail"

type rib_decoder = {
  mutable d_head : string;
  mutable d_fields : (rib_fields, string) result;
}

let rib_decoder () = { d_head = ""; d_fields = Error "rib record without head" }

let decode_rib_entry d v =
  let head = Store.Value.head v in
  if not (head == d.d_head || String.equal head d.d_head) then begin
    d.d_head <- head;
    d.d_fields <- decode_rib_head head
  end;
  match d.d_fields with
  | Error e -> Error e
  | Ok f -> (
      match prefix_of_tail f.f_nlri (Store.Value.tail v) with
      | Ok prefix -> Ok (f.f_src, prefix, f.f_attrs)
      | Error e -> Error e)

(* --- BFD ------------------------------------------------------------------- *)

let encode_bfd ~my_disc ~your_disc =
  string_of_int my_disc ^ "|" ^ string_of_int your_disc

let encode_part ~offset ~bytes = string_of_int offset ^ ":" ^ hex bytes

let decode_part s =
  match String.index_opt s ':' with
  | None -> Error "no part separator"
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          unhex (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some offset, Ok bytes -> Ok (offset, bytes)
      | _ -> Error "bad part record")

let decode_bfd s =
  match String.split_on_char '|' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some my_disc, Some your_disc -> Ok (my_disc, your_disc)
      | _ -> Error "bad bfd discs")
  | _ -> Error "bad bfd record"
