(** Connection four-tuples. *)

type t = {
  local_addr : Netsim.Addr.t;
  local_port : int;
  remote_addr : Netsim.Addr.t;
  remote_port : int;
}

val v : Netsim.Addr.t -> int -> Netsim.Addr.t -> int -> t
(** [v local_addr local_port remote_addr remote_port]. *)

val to_string : t -> string
