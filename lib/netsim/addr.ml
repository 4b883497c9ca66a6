type t = int

let mask32 = 0xFFFFFFFF
let of_int v = v land mask32
let to_int t = t

let of_octets a b c d =
  ((a land 0xFF) lsl 24)
  lor ((b land 0xFF) lsl 16)
  lor ((c land 0xFF) lsl 8)
  lor (d land 0xFF)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match
        (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
         int_of_string_opt d)
      with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256
             && d >= 0 && d < 256 ->
          of_octets a b c d
      | _ -> invalid_arg (Printf.sprintf "Addr.of_string: %S" s))
  | _ -> invalid_arg (Printf.sprintf "Addr.of_string: %S" s)

(* Dotted-quad formatting writes straight into one right-sized [Bytes]:
   store keys and checkpoint records format an address or prefix per
   route, so no format interpreter and no intermediate strings. *)
let octet t i = (t lsr (24 - (8 * i))) land 0xFF

(* Decimal width of an octet (0-255) or a prefix length (0-32). *)
let digits v = if v >= 100 then 3 else if v >= 10 then 2 else 1

let put_dec b pos v =
  let n = digits v in
  if n = 3 then Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (v / 100)));
  if n >= 2 then
    Bytes.unsafe_set b (pos + n - 2) (Char.unsafe_chr (48 + (v / 10 mod 10)));
  Bytes.unsafe_set b (pos + n - 1) (Char.unsafe_chr (48 + (v mod 10)));
  pos + n

let width t =
  digits (octet t 0) + digits (octet t 1) + digits (octet t 2)
  + digits (octet t 3) + 3

let put_addr b pos t =
  let pos = put_dec b pos (octet t 0) in
  Bytes.unsafe_set b pos '.';
  let pos = put_dec b (pos + 1) (octet t 1) in
  Bytes.unsafe_set b pos '.';
  let pos = put_dec b (pos + 1) (octet t 2) in
  Bytes.unsafe_set b pos '.';
  put_dec b (pos + 1) (octet t 3)

let to_string t =
  let b = Bytes.create (width t) in
  ignore (put_addr b 0 t);
  Bytes.unsafe_to_string b

let pp fmt t = Format.pp_print_string fmt (to_string t)
let compare = Int.compare
let equal = Int.equal
(* An integer finalizer for hash tables keyed by addresses or by ints
   built from them: far cheaper than the polymorphic [Hashtbl.hash] on
   the per-packet path. [Hashtbl] keeps the low bits, so the high bits
   are folded down after each multiply. *)
let[@inline] hash_int x =
  let x = (x lxor (x lsr 32)) * 0x45D9F3B3335B369 in
  let x = (x lxor (x lsr 29)) * 0x2545F4914F6CDD1D in
  (x lxor (x lsr 32)) land max_int

let hash = hash_int
let succ t = (t + 1) land mask32
let offset t n = (t + n) land mask32

type prefix = { base : t; len : int }

let netmask len = if len = 0 then 0 else mask32 land (mask32 lsl (32 - len))

let prefix addr len =
  if len < 0 || len > 32 then
    invalid_arg (Printf.sprintf "Addr.prefix: bad length %d" len);
  { base = addr land netmask len; len }

let prefix_of_string s =
  match String.index_opt s '/' with
  | None -> invalid_arg (Printf.sprintf "Addr.prefix_of_string: %S" s)
  | Some i -> (
      let addr = of_string (String.sub s 0 i) in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some len -> prefix addr len
      | None -> invalid_arg (Printf.sprintf "Addr.prefix_of_string: %S" s))

let prefix_width p = width p.base + 1 + digits p.len

let put_prefix b pos p =
  let pos = put_addr b pos p.base in
  Bytes.unsafe_set b pos '/';
  put_dec b (pos + 1) p.len

let prefix_to_string p =
  let b = Bytes.create (prefix_width p) in
  ignore (put_prefix b 0 p);
  Bytes.unsafe_to_string b


let compare_prefix p q =
  match Int.compare p.base q.base with 0 -> Int.compare p.len q.len | c -> c

let equal_prefix p q = p.base = q.base && p.len = q.len
let mask a len = a land netmask len
let contains p a = mask a p.len = p.base

let subsumes p q = q.len >= p.len && contains p q.base

let prefix_size p = if p.len = 0 then 1 lsl 32 else 1 lsl (32 - p.len)

let host_in p n =
  if n < 0 || n >= prefix_size p then
    invalid_arg
      (Printf.sprintf "Addr.host_in: %d outside %s" n (prefix_to_string p));
  offset p.base n
