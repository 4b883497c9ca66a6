type payload = ..
type payload += Raw of string

type t = {
  src : Addr.t;
  dst : Addr.t;
  size : int;
  mutable ttl : int;
  payload : payload;
}

let make ?(ttl = 64) ~src ~dst ~size payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { src; dst; size; ttl; payload }

let dummy =
  {
    src = Addr.of_int 0;
    dst = Addr.of_int 0;
    size = 1;
    ttl = 0;
    payload = Raw "";
  }

let decrement_ttl p =
  if p.ttl <= 1 then false
  else begin
    p.ttl <- p.ttl - 1;
    true
  end

