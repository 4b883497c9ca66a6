type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  window : int;
  payload : string;
  flags : flags;
}

type Netsim.Packet.payload += Tcp of t

let plain = { syn = false; ack = false; fin = false; rst = false }
let flag_syn = { plain with syn = true }
let flag_ack = { plain with ack = true }
let flag_synack = { plain with syn = true; ack = true }
let flag_fin_ack = { plain with fin = true; ack = true }
let flag_rst = { plain with rst = true }

let seg_len t =
  String.length t.payload
  + (if t.flags.syn then 1 else 0)
  + if t.flags.fin then 1 else 0

let header_bytes = 40
let wire_size t = header_bytes + String.length t.payload

let is_pure_ack t =
  t.flags.ack && (not t.flags.syn) && (not t.flags.fin) && (not t.flags.rst)
  && String.length t.payload = 0

