type t = {
  name : string;
  key : string;
  start_at : Sim.Time.t;
  stop_at : Sim.Time.t option;
  open_seq : int;
  close_seq : int option;
}

let of_entries entries =
  (* Phases in opening order, newest first, with the (name, key) slots
     still open. A closed phase is rewritten in place of its open one. *)
  let rev = ref [] in
  let opened = Hashtbl.create 16 in
  let start name key ~at ~seq =
    let p =
      { name; key; start_at = at; stop_at = None; open_seq = seq;
        close_seq = None }
    in
    let cell = ref p in
    Hashtbl.replace opened (name, key) cell;
    rev := cell :: !rev
  in
  let stop name key ~at ~seq =
    match Hashtbl.find_opt opened (name, key) with
    | Some cell ->
        cell := { !cell with stop_at = Some at; close_seq = Some seq };
        Hashtbl.remove opened (name, key)
    | None -> ()
  in
  List.iter
    (fun ({ seq; at; event } : Bus.entry) ->
      match event with
      | Event.Failure_injected { service; _ } ->
          start "failover" service ~at ~seq;
          start "detect" service ~at ~seq
      | Planned_migration { service } ->
          start "planned_migration" service ~at ~seq
      | Failure_detected { id; _ } ->
          stop "detect" id ~at ~seq;
          start "initiate" id ~at ~seq
      | Migration_initiated { id } ->
          stop "initiate" id ~at ~seq;
          start "migrate" id ~at ~seq
      | Migration_done { id; _ } -> stop "migrate" id ~at ~seq
      | Catchup_start { service; vrf } ->
          start "replica_catchup" (service ^ "|" ^ vrf) ~at ~seq
      | Catchup_done { service; vrf; _ } ->
          let key = service ^ "|" ^ vrf in
          stop "replica_catchup" key ~at ~seq;
          start "tcp_replay" key ~at ~seq
      | Tcp_synced { service; vrf } ->
          stop "tcp_replay" (service ^ "|" ^ vrf) ~at ~seq;
          stop "failover" service ~at ~seq;
          stop "planned_migration" service ~at ~seq
      | Bfd_down { node; peer; vrf; silent_s; _ } when silent_s > 0.0 ->
          rev :=
            ref
              {
                name = "bfd_detect";
                key = String.concat "|" [ node; peer; vrf ];
                start_at = at - Sim.Time.of_sec_f silent_s;
                stop_at = Some at;
                open_seq = seq;
                close_seq = Some seq;
              }
            :: !rev
      | _ -> ())
    entries;
  List.rev_map ( ! ) !rev

let seconds ~name phases =
  match
    List.find_map
      (fun p ->
        match p.stop_at with
        | Some stop when String.equal p.name name ->
            Some (Sim.Time.diff stop p.start_at)
        | Some _ | None -> None)
      phases
  with
  | Some d -> Sim.Time.to_sec_f d
  | None -> nan
