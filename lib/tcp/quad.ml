type t = {
  local_addr : Netsim.Addr.t;
  local_port : int;
  remote_addr : Netsim.Addr.t;
  remote_port : int;
}

let v local_addr local_port remote_addr remote_port =
  { local_addr; local_port; remote_addr; remote_port }

let pp fmt t =
  Format.fprintf fmt "%a:%d<->%a:%d" Netsim.Addr.pp t.local_addr t.local_port
    Netsim.Addr.pp t.remote_addr t.remote_port

let to_string t = Format.asprintf "%a" pp t
