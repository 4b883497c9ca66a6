type result = {
  minimal : Descriptor.t;
  outcome : Runner.outcome;
  runs_used : int;
  removed_faults : int;
}

let clamp_vrfs peers faults =
  List.map
    (fun (f : Descriptor.fault) ->
      let cl v = min v (peers - 1) in
      match f with
      | Descriptor.Flap r -> Descriptor.Flap { r with vrf = cl r.vrf }
      | Descriptor.Loss r -> Descriptor.Loss { r with vrf = cl r.vrf }
      | Descriptor.Bfd_perturb r ->
          Descriptor.Bfd_perturb { r with vrf = cl r.vrf }
      | Descriptor.Peer_rst r -> Descriptor.Peer_rst { r with vrf = cl r.vrf }
      | Descriptor.Peer_cease r ->
          Descriptor.Peer_cease { r with vrf = cl r.vrf }
      | Descriptor.Kill _ | Descriptor.Planned _ | Descriptor.Heal _
      | Descriptor.Store_crash _ | Descriptor.Store_partition _
      | Descriptor.Store_slow _ | Descriptor.Host_kill _
      | Descriptor.Region_store_outage _ | Descriptor.Rolling_upgrade _ -> f)
    faults

(* Topology/workload reductions, tried in order once the fault list is
   minimal. Each returns [None] when it would not change the
   descriptor. *)
let reductions : (Descriptor.t -> Descriptor.t option) list =
  [
    (fun d ->
      if d.Descriptor.peers > 1 then
        Some
          {
            d with
            Descriptor.peers = 1;
            faults = clamp_vrfs 1 d.Descriptor.faults;
          }
      else None);
    (fun d ->
      if d.Descriptor.hosts > 3 then Some { d with Descriptor.hosts = 3 }
      else None);
    (fun d ->
      if d.Descriptor.churn > 0 then Some { d with Descriptor.churn = 0 }
      else None);
    (fun d ->
      if d.Descriptor.peer_prefixes > 20 then
        Some { d with Descriptor.peer_prefixes = 20 }
      else None);
    (fun d ->
      if d.Descriptor.svc_prefixes > 10 then
        Some { d with Descriptor.svc_prefixes = 10 }
      else None);
    (fun d ->
      let last =
        List.fold_left
          (fun acc f -> max acc (Descriptor.fault_at f))
          0 d.Descriptor.faults
      in
      let w = max 1_000 (last + 1_000) in
      if w < d.Descriptor.window_ms then Some { d with Descriptor.window_ms = w }
      else None);
  ]

let minimize ?(max_runs = 48) d0 =
  let runs = ref 0 in
  let attempt d =
    if !runs >= max_runs then None
    else begin
      incr runs;
      let o = Runner.run d in
      if Runner.ok o then None else Some o
    end
  in
  match attempt d0 with
  | None -> None (* the original passes (or max_runs = 0): nothing to do *)
  | Some o0 ->
      let best = ref (d0, o0) in
      let try_candidate d =
        match attempt d with
        | Some o ->
            best := (d, o);
            true
        | None -> false
      in
      (* ddmin-lite over the fault list: remove windows of shrinking
         size; on success rescan at the same size. *)
      let rec pass size =
        if size >= 1 then begin
          let changed = ref true in
          while !changed && !runs < max_runs do
            changed := false;
            let faults = (fst !best).Descriptor.faults in
            let n = List.length faults in
            let i = ref 0 in
            while (not !changed) && !i + size <= n do
              let keep =
                List.filteri
                  (fun j _ -> j < !i || j >= !i + size)
                  faults
              in
              if
                keep <> faults
                && try_candidate { (fst !best) with Descriptor.faults = keep }
              then changed := true
              else incr i
            done
          done;
          pass (size / 2)
        end
      in
      pass (max 1 (List.length d0.Descriptor.faults / 2));
      (* Topology/workload reduction. *)
      List.iter
        (fun reduce ->
          match reduce (fst !best) with
          | Some d -> ignore (try_candidate d)
          | None -> ())
        reductions;
      let minimal, outcome = !best in
      Some
        {
          minimal;
          outcome;
          runs_used = !runs;
          removed_faults =
            List.length d0.Descriptor.faults
            - List.length minimal.Descriptor.faults;
        }
