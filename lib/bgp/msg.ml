type capability =
  | Cap_route_refresh
  | Cap_four_octet_asn of int
  | Cap_graceful_restart of { restart_time : int; preserved_fwd : bool }
  | Cap_unknown of int * string

type open_msg = {
  version : int;
  asn : int;
  hold_time : int;
  router_id : Netsim.Addr.t;
  capabilities : capability list;
}

type update = {
  withdrawn : Netsim.Addr.prefix list;
  attrs : Attrs.t option;
  nlri : Netsim.Addr.prefix list;
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_msg
  | Update of update
  | Notification of notification
  | Keepalive
  | Route_refresh of { afi : int; safi : int }

let end_of_rib = Update { withdrawn = []; attrs = None; nlri = [] }

let is_end_of_rib = function
  | Update { withdrawn = []; attrs = None; nlri = [] } -> true
  | _ -> false

let update_count = function
  | Update u -> List.length u.nlri + List.length u.withdrawn
  | Open _ | Notification _ | Keepalive | Route_refresh _ -> 0

let max_size = 4096
let header_size = 19
let as_trans = 23456

type error =
  | Bad_marker
  | Bad_length of int
  | Bad_type of int
  | Too_long of int
  | Malformed of string

let pp_error fmt = function
  | Bad_marker -> Format.pp_print_string fmt "bad marker"
  | Bad_length n -> Format.fprintf fmt "bad length %d" n
  | Bad_type n -> Format.fprintf fmt "bad message type %d" n
  | Too_long n -> Format.fprintf fmt "message too long (%d)" n
  | Malformed s -> Format.fprintf fmt "malformed: %s" s

(* --- Encoding ----------------------------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u16 b v =
  add_u8 b (v lsr 8);
  add_u8 b v

let add_u32 b v =
  add_u16 b (v lsr 16);
  add_u16 b v

let add_prefix b (p : Netsim.Addr.prefix) =
  add_u8 b p.Netsim.Addr.len;
  let nbytes = (p.Netsim.Addr.len + 7) / 8 in
  let base = Netsim.Addr.to_int p.Netsim.Addr.base in
  for i = 0 to nbytes - 1 do
    add_u8 b ((base lsr (24 - (8 * i))) land 0xFF)
  done

let rec add_asns ~as4 b = function
  | [] -> ()
  | asn :: rest ->
      if as4 then add_u32 b asn else add_u16 b asn;
      add_asns ~as4 b rest

let add_as_segment ~as4 b kind asns =
  add_u8 b kind;
  add_u8 b (List.length asns);
  add_asns ~as4 b asns

let rec encode_as_path ~as4 b = function
  | [] -> ()
  | seg :: rest ->
      (match seg with
      | Attrs.Set a -> add_as_segment ~as4 b 1 a
      | Attrs.Seq a -> add_as_segment ~as4 b 2 a);
      encode_as_path ~as4 b rest

let encode_attr b ~flags ~typ value =
  let len = String.length value in
  if len > 255 then invalid_arg "encode_attr: use encode_attr_auto";
  add_u8 b flags;
  add_u8 b typ;
  add_u8 b len;
  Buffer.add_string b value

let encode_attr_auto b ~flags ~typ value =
  let len = String.length value in
  if len > 255 then begin
    add_u8 b (flags lor 0x10);
    add_u8 b typ;
    add_u16 b len;
    Buffer.add_string b value
  end
  else encode_attr b ~flags ~typ value

(* A u32-valued attribute has fixed length 4: write it directly rather
   than through a sub buffer and its closure (h1 budget). *)
let encode_attr_u32 b ~flags ~typ v =
  add_u8 b flags;
  add_u8 b typ;
  add_u8 b 4;
  add_u32 b v

let rec add_communities b = function
  | [] -> ()
  | (asn, v) :: rest ->
      add_u16 b asn;
      add_u16 b v;
      add_communities b rest

let encode_attrs ~as4 (a : Attrs.t) =
  let b = Buffer.create 128 in
  (* ORIGIN *)
  encode_attr b ~flags:0x40 ~typ:1
    (String.make 1 (Char.chr (Attrs.origin_rank a.origin)));
  (* AS_PATH *)
  let pb = Buffer.create 64 in
  encode_as_path ~as4 pb a.as_path;
  encode_attr_auto b ~flags:0x40 ~typ:2 (Buffer.contents pb);
  (* NEXT_HOP *)
  encode_attr_u32 b ~flags:0x40 ~typ:3 (Netsim.Addr.to_int a.next_hop);
  (* MED *)
  (match a.med with
  | Some med -> encode_attr_u32 b ~flags:0x80 ~typ:4 med
  | None -> ());
  (* LOCAL_PREF *)
  (match a.local_pref with
  | Some lp -> encode_attr_u32 b ~flags:0x40 ~typ:5 lp
  | None -> ());
  if a.atomic_aggregate then encode_attr b ~flags:0x40 ~typ:6 "";
  (* COMMUNITY *)
  if a.communities <> [] then begin
    let cb = Buffer.create 64 in
    add_communities cb a.communities;
    encode_attr_auto b ~flags:0xC0 ~typ:8 (Buffer.contents cb)
  end;
  Buffer.contents b

let encode_capability b = function
  | Cap_route_refresh ->
      add_u8 b 2;
      add_u8 b 0
  | Cap_four_octet_asn asn ->
      add_u8 b 65;
      add_u8 b 4;
      add_u32 b asn
  | Cap_graceful_restart { restart_time; preserved_fwd } ->
      add_u8 b 64;
      add_u8 b 6;
      (* Flags nibble (R bit clear) + 12-bit restart time, then one
         IPv4/unicast AFI entry. *)
      add_u16 b (restart_time land 0xFFF);
      add_u16 b 1 (* AFI IPv4 *);
      add_u8 b 1 (* SAFI unicast *);
      add_u8 b (if preserved_fwd then 0x80 else 0x00)
  | Cap_unknown (code, value) ->
      add_u8 b code;
      add_u8 b (String.length value);
      Buffer.add_string b value

let rec encode_capabilities b = function
  | [] -> ()
  | c :: rest ->
      encode_capability b c;
      encode_capabilities b rest

let rec add_prefixes b = function
  | [] -> ()
  | p :: rest ->
      add_prefix b p;
      add_prefixes b rest

let encode_body ~as4 = function
  | Keepalive -> ""
  | msg ->
      let b = Buffer.create 64 in
      (match msg with
      | Keepalive -> ()
      | Open o ->
          add_u8 b o.version;
          add_u16 b (if o.asn > 0xFFFF then as_trans else o.asn);
          add_u16 b o.hold_time;
          add_u32 b (Netsim.Addr.to_int o.router_id);
          let cb = Buffer.create 64 in
          encode_capabilities cb o.capabilities;
          let caps = Buffer.contents cb in
          if String.length caps = 0 then add_u8 b 0
          else begin
            (* One optional parameter of type 2 (capabilities). *)
            add_u8 b (String.length caps + 2);
            add_u8 b 2;
            add_u8 b (String.length caps);
            Buffer.add_string b caps
          end
      | Update u ->
          let wb = Buffer.create 64 in
          add_prefixes wb u.withdrawn;
          let withdrawn = Buffer.contents wb in
          add_u16 b (String.length withdrawn);
          Buffer.add_string b withdrawn;
          let attrs =
            match u.attrs with Some a -> encode_attrs ~as4 a | None -> ""
          in
          add_u16 b (String.length attrs);
          Buffer.add_string b attrs;
          add_prefixes b u.nlri
      | Notification n ->
          add_u8 b n.code;
          add_u8 b n.subcode;
          Buffer.add_string b n.data
      | Route_refresh { afi; safi } ->
          add_u16 b afi;
          add_u8 b 0;
          add_u8 b safi);
      Buffer.contents b

let type_code = function
  | Open _ -> 1
  | Update _ -> 2
  | Notification _ -> 3
  | Keepalive -> 4
  | Route_refresh _ -> 5

let encode ?(as4 = true) msg =
  let body = encode_body ~as4 msg in
  let total = header_size + String.length body in
  if total > max_size then
    invalid_arg (Printf.sprintf "Msg.encode: %d bytes exceeds max %d" total max_size);
  let b = Buffer.create total in
  for _ = 1 to 16 do
    Buffer.add_char b '\xFF'
  done;
  add_u16 b total;
  add_u8 b (type_code msg);
  Buffer.add_string b body;
  Buffer.contents b

(* --- Decoding ----------------------------------------------------------- *)

exception Fail of error

type reader = { src : string; mutable pos : int; limit : int }

let need r n =
  if r.pos + n > r.limit then raise (Fail (Malformed "truncated"))

let u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let u16 r =
  let hi = u8 r in
  let lo = u8 r in
  (hi lsl 8) lor lo

let u32 r =
  let hi = u16 r in
  let lo = u16 r in
  (hi lsl 16) lor lo

let str r n =
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_prefix r =
  let len = u8 r in
  if len > 32 then raise (Fail (Malformed "prefix length > 32"));
  let nbytes = (len + 7) / 8 in
  need r nbytes;
  let base = ref 0 in
  for i = 0 to nbytes - 1 do
    base := !base lor (Char.code r.src.[r.pos + i] lsl (24 - (8 * i)))
  done;
  r.pos <- r.pos + nbytes;
  Netsim.Addr.prefix (Netsim.Addr.of_int !base) len

let read_prefixes r stop =
  let out = ref [] in
  while r.pos < stop do
    out := read_prefix r :: !out
  done;
  List.rev !out

let read_as_path ~as4 r stop =
  let out = ref [] in
  while r.pos < stop do
    let kind = u8 r in
    let count = u8 r in
    let asns = List.init count (fun _ -> if as4 then u32 r else u16 r) in
    match kind with
    | 1 -> out := Attrs.Set asns :: !out
    | 2 -> out := Attrs.Seq asns :: !out
    | k -> raise (Fail (Malformed (Printf.sprintf "AS_PATH segment type %d" k)))
  done;
  List.rev !out

let read_attrs ~as4 r stop =
  (* Accumulate fields then assemble; NEXT_HOP is mandatory for updates
     with NLRI, checked by the caller. *)
  let origin = ref Attrs.Igp in
  let as_path = ref [] in
  let next_hop = ref None in
  let med = ref None in
  let local_pref = ref None in
  let atomic = ref false in
  let communities = ref [] in
  while r.pos < stop do
    let flags = u8 r in
    let typ = u8 r in
    let len = if flags land 0x10 <> 0 then u16 r else u8 r in
    let value_end = r.pos + len in
    if value_end > stop then raise (Fail (Malformed "attribute overruns"));
    (match typ with
    | 1 ->
        (match u8 r with
        | 0 -> origin := Attrs.Igp
        | 1 -> origin := Attrs.Egp
        | 2 -> origin := Attrs.Incomplete
        | v -> raise (Fail (Malformed (Printf.sprintf "origin %d" v))))
    | 2 -> as_path := read_as_path ~as4 r value_end
    | 3 -> next_hop := Some (Netsim.Addr.of_int (u32 r))
    | 4 -> med := Some (u32 r)
    | 5 -> local_pref := Some (u32 r)
    | 6 -> atomic := true
    | 8 ->
        let out = ref [] in
        while r.pos < value_end do
          let asn = u16 r in
          let v = u16 r in
          out := (asn, v) :: !out
        done;
        communities := List.rev !out
    | _ -> r.pos <- value_end (* skip unknown attribute *));
    if r.pos <> value_end then raise (Fail (Malformed "attribute length"))
  done;
  fun () ->
    match !next_hop with
    | None -> raise (Fail (Malformed "missing NEXT_HOP"))
    | Some nh ->
        {
          Attrs.origin = !origin;
          as_path = !as_path;
          next_hop = nh;
          med = !med;
          local_pref = !local_pref;
          atomic_aggregate = !atomic;
          communities = !communities;
        }

let read_capabilities r stop =
  let out = ref [] in
  while r.pos < stop do
    let code = u8 r in
    let len = u8 r in
    let value_end = r.pos + len in
    if value_end > stop then raise (Fail (Malformed "capability overruns"));
    (match (code, len) with
    | 2, 0 -> out := Cap_route_refresh :: !out
    | 65, 4 -> out := Cap_four_octet_asn (u32 r) :: !out
    | 64, _ when len >= 2 ->
        let word = u16 r in
        let restart_time = word land 0xFFF in
        let preserved_fwd =
          (* Look at the first AFI entry's flags if present. *)
          if len >= 6 then begin
            let _afi = u16 r in
            let _safi = u8 r in
            let flags = u8 r in
            r.pos <- value_end;
            flags land 0x80 <> 0
          end
          else false
        in
        out := Cap_graceful_restart { restart_time; preserved_fwd } :: !out
    | _ -> out := Cap_unknown (code, str r len) :: !out);
    r.pos <- value_end
  done;
  List.rev !out

let decode_body ~as4 typ r =
  match typ with
  | 1 ->
      let version = u8 r in
      let wire_asn = u16 r in
      let hold_time = u16 r in
      let router_id = Netsim.Addr.of_int (u32 r) in
      let opt_len = u8 r in
      let opt_end = r.pos + opt_len in
      if opt_end > r.limit then raise (Fail (Malformed "options overrun"));
      let caps = ref [] in
      while r.pos < opt_end do
        let ptype = u8 r in
        let plen = u8 r in
        let pend = r.pos + plen in
        if pend > opt_end then raise (Fail (Malformed "parameter overruns"));
        if ptype = 2 then caps := !caps @ read_capabilities r pend
        else r.pos <- pend
      done;
      let asn =
        (* RFC 6793: AS_TRANS in the header, the real ASN in cap 65. *)
        match
          List.find_opt (function Cap_four_octet_asn _ -> true | _ -> false) !caps
        with
        | Some (Cap_four_octet_asn real) -> real
        | _ -> wire_asn
      in
      Open { version; asn; hold_time; router_id; capabilities = !caps }
  | 2 ->
      let wlen = u16 r in
      let wend = r.pos + wlen in
      if wend > r.limit then raise (Fail (Malformed "withdrawn overrun"));
      let withdrawn = read_prefixes r wend in
      let alen = u16 r in
      let aend = r.pos + alen in
      if aend > r.limit then raise (Fail (Malformed "attrs overrun"));
      let attrs_thunk = if alen = 0 then None else Some (read_attrs ~as4 r aend) in
      let nlri = read_prefixes r r.limit in
      let attrs =
        match (attrs_thunk, nlri) with
        | None, [] -> None
        | None, _ :: _ -> raise (Fail (Malformed "NLRI without attributes"))
        | Some thunk, _ -> Some (thunk ())
      in
      Update { withdrawn; attrs; nlri }
  | 3 ->
      let code = u8 r in
      let subcode = u8 r in
      let data = str r (r.limit - r.pos) in
      Notification { code; subcode; data }
  | 4 -> Keepalive
  | 5 ->
      let afi = u16 r in
      let _reserved = u8 r in
      let safi = u8 r in
      Route_refresh { afi; safi }
  | n -> raise (Fail (Bad_type n))

let check_header frame =
  if String.length frame < header_size then raise (Fail (Malformed "short frame"));
  for i = 0 to 15 do
    if frame.[i] <> '\xFF' then raise (Fail Bad_marker)
  done;
  let len = (Char.code frame.[16] lsl 8) lor Char.code frame.[17] in
  if len < header_size then raise (Fail (Bad_length len));
  if len > max_size then raise (Fail (Too_long len));
  if len <> String.length frame then raise (Fail (Bad_length len));
  (len, Char.code frame.[18])

let decode ?(as4 = true) frame =
  match
    let len, typ = check_header frame in
    let r = { src = frame; pos = header_size; limit = len } in
    let msg = decode_body ~as4 typ r in
    if r.pos <> r.limit then raise (Fail (Malformed "trailing bytes"));
    msg
  with
  | msg -> Ok msg
  | exception Fail e -> Error e

let error_notification e =
  let code, subcode =
    match e with
    | Bad_marker -> (1, 1)
    | Bad_length _ -> (1, 2)
    | Bad_type _ -> (1, 3)
    | Too_long _ -> (1, 2)
    | Malformed _ -> (3, 0)
  in
  Notification { code; subcode; data = "" }

(* --- Framer ------------------------------------------------------------- *)

module Framer = struct
  type msg = t

  type t = {
    as4 : bool;
    buf : Buffer.t;
    mutable poisoned : error option;
  }

  let create ?(as4 = true) () = { as4; buf = Buffer.create 256; poisoned = None }

  let buffered_bytes t = Buffer.contents t.buf

  (* Frames are cut at a read offset; the consumed prefix is dropped once
     per push, so a push of n frames copies the buffer once, not n times. *)
  let push t data =
    match t.poisoned with
    | Some e -> [ Error e ]
    | None ->
        Buffer.add_string t.buf data;
        let avail = Buffer.length t.buf in
        let out = ref [] in
        let pos = ref 0 in
        let continue = ref true in
        while !continue do
          if avail - !pos < header_size then continue := false
          else begin
            let len =
              (Char.code (Buffer.nth t.buf (!pos + 16)) lsl 8)
              lor Char.code (Buffer.nth t.buf (!pos + 17))
            in
            if len < header_size || len > max_size then begin
              let e = if len > max_size then Too_long len else Bad_length len in
              t.poisoned <- Some e;
              out := Error e :: !out;
              continue := false
            end
            else if avail - !pos < len then continue := false
            else begin
              let frame = Buffer.sub t.buf !pos len in
              pos := !pos + len;
              match decode ~as4:t.as4 frame with
              | Ok msg -> out := Ok (msg, frame) :: !out
              | Error e ->
                  t.poisoned <- Some e;
                  out := Error e :: !out;
                  continue := false
            end
          end
        done;
        if !pos > 0 then begin
          let rest = Buffer.sub t.buf !pos (avail - !pos) in
          Buffer.clear t.buf;
          Buffer.add_string t.buf rest
        end;
        List.rev !out
end

