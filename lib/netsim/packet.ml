type payload = ..
type payload += Raw of string

type t = {
  id : int;
  src : Addr.t;
  dst : Addr.t;
  size : int;
  mutable ttl : int;
  payload : payload;
}

(* Packet ids are domain-local: ids only need to be unique within the
   simulation that minted them, and a per-domain stream keeps them
   replay-stable no matter what other domains are running. *)
let next_id = Domain.DLS.new_key (fun () -> ref 0)

let make ?(ttl = 64) ~src ~dst ~size payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  let next_id = Domain.DLS.get next_id in
  incr next_id;
  { id = !next_id; src; dst; size; ttl; payload }

let dummy =
  {
    id = -1;
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

