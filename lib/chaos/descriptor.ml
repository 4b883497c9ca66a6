type fault =
  | Kill of { at_ms : int; kind : Orch.Controller.failure_kind }
  | Planned of { at_ms : int }
  | Heal of { at_ms : int }
  | Flap of { at_ms : int; vrf : int; dur_ms : int }
  | Loss of { at_ms : int; vrf : int; dur_ms : int; loss_pct : int }
  | Bfd_perturb of { at_ms : int; vrf : int; factor_pct : int }
  | Peer_rst of { at_ms : int; vrf : int }
  | Peer_cease of { at_ms : int; vrf : int }
  | Store_crash of { at_ms : int; dur_ms : int }
  | Store_partition of { at_ms : int; dur_ms : int }
  | Store_slow of { at_ms : int; dur_ms : int; factor_pct : int }
  (* Fleet campaign tokens (ISSUE 10). Tokens only at the single
     instance scale: the runner maps them onto their closest
     single-instance equivalent so any descriptor stays runnable, while
     [Fleet.Campaign] gives them their correlated fleet meaning. The
     generator never emits them, so old corpus descriptors parse (and
     replay) unchanged. *)
  | Host_kill of { at_ms : int }
  | Region_store_outage of { at_ms : int; dur_ms : int }
  | Rolling_upgrade of { at_ms : int; bound : int }

type t = {
  seed : int;
  peers : int;
  hosts : int;
  peer_prefixes : int;
  svc_prefixes : int;
  churn : int;
  delay_us : int;
  window_ms : int;
  settle_ms : int;
  faults : fault list;
}

(* --- Token syntax ------------------------------------------------------------

   A fault token is NAME[.SEL]@AT[+DUR][SEP NUM], SEL a VRF index or a kill
   kind and SEP ':' or 'x'. [to_parts] maps a fault to those parts and
   [syntax] maps them back: every reader and writer of a token goes
   through these two, so a token kind is one arm in each. *)

type sel = Bare | Vrf of int | Kill_kind of Orch.Controller.failure_kind

(* [dur] and [num] are 0 for a kind whose token has no such field. *)
type parts = { name : string; sel : sel; at : int; dur : int; num : int }

let to_parts f =
  let parts ?(sel = Bare) ?(dur = 0) ?(num = 0) name at =
    { name; sel; at; dur; num }
  in
  match f with
  | Kill { at_ms; kind } -> parts "kill" ~sel:(Kill_kind kind) at_ms
  | Planned { at_ms } -> parts "planned" at_ms
  | Heal { at_ms } -> parts "heal" at_ms
  | Flap { at_ms; vrf; dur_ms } -> parts "flap" ~sel:(Vrf vrf) at_ms ~dur:dur_ms
  | Loss { at_ms; vrf; dur_ms; loss_pct } ->
      parts "loss" ~sel:(Vrf vrf) at_ms ~dur:dur_ms ~num:loss_pct
  | Bfd_perturb { at_ms; vrf; factor_pct } ->
      parts "bfd" ~sel:(Vrf vrf) at_ms ~num:factor_pct
  | Peer_rst { at_ms; vrf } -> parts "rst" ~sel:(Vrf vrf) at_ms
  | Peer_cease { at_ms; vrf } -> parts "cease" ~sel:(Vrf vrf) at_ms
  | Store_crash { at_ms; dur_ms } -> parts "store_crash" at_ms ~dur:dur_ms
  | Store_partition { at_ms; dur_ms } ->
      parts "store_partition" at_ms ~dur:dur_ms
  | Store_slow { at_ms; dur_ms; factor_pct } ->
      parts "store_slow" at_ms ~dur:dur_ms ~num:factor_pct
  | Host_kill { at_ms } -> parts "host_kill" at_ms
  | Region_store_outage { at_ms; dur_ms } ->
      parts "region_store_outage" at_ms ~dur:dur_ms
  | Rolling_upgrade { at_ms; bound } -> parts "rolling_upgrade" at_ms ~num:bound

(* What follows the instant in a kind's token: a [+DUR] never, always, or
   only when the duration is not 0 (the permanent store crash), and the
   separator before a trailing number; [build] makes the fault from the
   instant, the duration and the number. *)
type syntax = {
  dur : [ `No | `Nonzero | `Always ];
  sep : char option;
  build : int -> int -> int -> fault;
}

let syntax name sel =
  let syntax ?(dur = `No) ?sep build = Some { dur; sep; build } in
  match (name, sel) with
  | "kill", Kill_kind kind -> syntax (fun at_ms _ _ -> Kill { at_ms; kind })
  | "planned", Bare -> syntax (fun at_ms _ _ -> Planned { at_ms })
  | "heal", Bare -> syntax (fun at_ms _ _ -> Heal { at_ms })
  | "flap", Vrf vrf ->
      syntax ~dur:`Always (fun at_ms dur_ms _ -> Flap { at_ms; vrf; dur_ms })
  | "loss", Vrf vrf ->
      syntax ~dur:`Always ~sep:':' (fun at_ms dur_ms loss_pct ->
          Loss { at_ms; vrf; dur_ms; loss_pct })
  | "bfd", Vrf vrf ->
      syntax ~sep:'x' (fun at_ms _ factor_pct ->
          Bfd_perturb { at_ms; vrf; factor_pct })
  | "rst", Vrf vrf -> syntax (fun at_ms _ _ -> Peer_rst { at_ms; vrf })
  | "cease", Vrf vrf -> syntax (fun at_ms _ _ -> Peer_cease { at_ms; vrf })
  | "store_crash", Bare ->
      syntax ~dur:`Nonzero (fun at_ms dur_ms _ -> Store_crash { at_ms; dur_ms })
  | "store_partition", Bare ->
      syntax ~dur:`Always (fun at_ms dur_ms _ ->
          Store_partition { at_ms; dur_ms })
  | "store_slow", Bare ->
      syntax ~dur:`Always ~sep:':' (fun at_ms dur_ms factor_pct ->
          Store_slow { at_ms; dur_ms; factor_pct })
  | "host_kill", Bare -> syntax (fun at_ms _ _ -> Host_kill { at_ms })
  | "region_store_outage", Bare ->
      syntax ~dur:`Always (fun at_ms dur_ms _ ->
          Region_store_outage { at_ms; dur_ms })
  | "rolling_upgrade", Bare ->
      syntax ~sep:':' (fun at_ms _ bound -> Rolling_upgrade { at_ms; bound })
  | _ -> None

(* The syntax of a fault's own parts, which [syntax] always has. *)
let syntax_of p = Option.get (syntax p.name p.sel)
let fault_at f = (to_parts f).at

let kill_kinds =
  Orch.Controller.
    [ App_failure; Container_failure; Host_failure; Host_network_failure ]

let kill_kind_name : Orch.Controller.failure_kind -> string = function
  | App_failure -> "app"
  | Container_failure -> "container"
  | Host_failure -> "host"
  | Host_network_failure -> "hostnet"

let fault_kind_name f =
  match to_parts f with
  | { name; sel = Kill_kind kind; _ } -> name ^ "." ^ kill_kind_name kind
  | { name; _ } -> name

let map_vrf g f =
  match to_parts f with
  | { sel = Vrf v; _ } as p ->
      let p = { p with sel = Vrf (g v) } in
      (syntax_of p).build p.at p.dur p.num
  | _ -> f

let equal (a : t) (b : t) = a = b

(* [f] over [xs] in order, up to the first error. *)
let traverse f xs =
  List.fold_left
    (fun acc x ->
      Result.bind acc (fun ys -> Result.map (fun y -> y :: ys) (f x)))
    (Ok []) xs
  |> Result.map List.rev

(* --- Validation ----------------------------------------------------------- *)

let validate t =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_fault f =
    let p = to_parts f and name = fault_kind_name f in
    let* () =
      if p.at < 0 || p.at > t.window_ms then
        err "%s at %d ms outside the fault window [0, %d]" name p.at
          t.window_ms
      else Ok ()
    in
    let* () =
      match p.sel with
      | Vrf vrf when vrf < 0 || vrf >= t.peers ->
          err "%s references vrf %d but the run has %d peers" name vrf t.peers
      | _ -> Ok ()
    in
    (* A duration the token always carries is positive; the one it may
       leave out is 0 for a permanent fault. *)
    let* () =
      match (syntax_of p).dur with
      | `Always when p.dur <= 0 -> err "%s duration must be positive" name
      | `Nonzero when p.dur < 0 -> err "%s duration must be >= 0" name
      | _ -> Ok ()
    in
    match f with
    | Loss { loss_pct; _ } when loss_pct < 1 || loss_pct > 95 ->
        err "loss percentage %d outside [1, 95]" loss_pct
    | Bfd_perturb { factor_pct; _ } when factor_pct < 10 || factor_pct > 500 ->
        err "bfd factor %d%% outside [10, 500]" factor_pct
    | Store_slow { factor_pct; _ }
      when factor_pct < 101 || factor_pct > 10_000 ->
        err "store_slow factor %d%% outside [101, 10000]" factor_pct
    | Rolling_upgrade { bound; _ } when bound < 1 || bound > 64 ->
        err "rolling_upgrade concurrency bound %d outside [1, 64]" bound
    | _ -> Ok ()
  in
  (* The store is the recovery substrate: a migration scheduled while the
     store is down (or gone for good — a permanent [store_crash] lasts
     until the end of the run) would hand the replacement an empty state.
     The controller defers such migrations, so a kill inside an outage
     window never completes within the run — reject the combination
     outright instead of producing schedules that cannot settle. *)
  let outage_end at dur = if dur = 0 then max_int else at + dur in
  let outages =
    List.filter_map
      (function
        | Store_crash { at_ms; dur_ms }
        | Store_partition { at_ms; dur_ms }
        | Region_store_outage { at_ms; dur_ms } ->
            Some (at_ms, outage_end at_ms dur_ms)
        | _ -> None)
      t.faults
  in
  let outage_conflict f =
    match f with
    | ( Kill { at_ms; _ }
      | Planned { at_ms }
      | Host_kill { at_ms }
      | Rolling_upgrade { at_ms; _ } )
      when List.exists (fun (s, e) -> at_ms >= s && at_ms <= e) outages ->
        err "%s at %d ms falls inside a store outage window"
          (fault_kind_name f) at_ms
    | _ -> Ok ()
  in
  (* A rolling-upgrade wave owns the fleet until its last drain
     completes, and completion time is schedule-dependent — so any two
     waves in one descriptor are considered overlapping and rejected,
     same spirit as the store-outage exclusivity above. *)
  let wave_conflict () =
    let waves =
      List.filter_map
        (function Rolling_upgrade { at_ms; _ } -> Some at_ms | _ -> None)
        t.faults
    in
    match waves with
    | a :: b :: _ ->
        err "rolling_upgrade at %d ms overlaps the wave at %d ms" (max a b)
          (min a b)
    | _ -> Ok ()
  in
  if t.seed < 0 then err "negative seed"
  else if t.peers < 1 || t.peers > 8 then err "peers %d outside [1, 8]" t.peers
  else if t.hosts < 2 || t.hosts > 8 then err "hosts %d outside [2, 8]" t.hosts
  else if t.peer_prefixes < 1 || t.peer_prefixes > 5000 then
    err "peer prefixes %d outside [1, 5000]" t.peer_prefixes
  else if t.svc_prefixes < 1 || t.svc_prefixes > 5000 then
    err "service prefixes %d outside [1, 5000]" t.svc_prefixes
  else if t.churn < 0 || t.churn > 10 then err "churn %d outside [0, 10]" t.churn
  else if t.delay_us < 1 || t.delay_us > 100_000 then
    err "link delay %d us outside [1, 100000]" t.delay_us
  else if t.window_ms < 1000 then err "window shorter than 1 s"
  else if t.settle_ms < 0 then err "negative settle"
  else
    let* _ = traverse check_fault t.faults in
    let* _ = traverse outage_conflict t.faults in
    wave_conflict ()

(* --- Serialization -------------------------------------------------------- *)

let magic = "chaos1"

let sel_suffix = function
  | Bare -> ""
  | Vrf vrf -> "." ^ string_of_int vrf
  | Kill_kind kind -> "." ^ kill_kind_name kind

let fault_to_string f =
  let p = to_parts f in
  let s = syntax_of p in
  let dur =
    if s.dur = `Always || (s.dur = `Nonzero && p.dur <> 0) then
      Printf.sprintf "+%d" p.dur
    else ""
  in
  let num =
    match s.sep with Some c -> Printf.sprintf "%c%d" c p.num | None -> ""
  in
  Printf.sprintf "%s%s@%d%s%s" p.name (sel_suffix p.sel) p.at dur num

let to_string t =
  let faults =
    match t.faults with
    | [] -> "-"
    | fs -> String.concat "," (List.map fault_to_string fs)
  in
  Printf.sprintf
    "%s seed=%d peers=%d hosts=%d ppfx=%d spfx=%d churn=%d delay=%d \
     window=%d settle=%d faults=%s"
    magic t.seed t.peers t.hosts t.peer_prefixes t.svc_prefixes t.churn
    t.delay_us t.window_ms t.settle_ms faults

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: not an integer: %S" what s)

(* [s] split at the first [on], or whole. *)
let cut on s =
  match String.index_opt s on with
  | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> (s, None)

(* The one tokenizer: the kind's [syntax] says where the text after '@'
   splits, and [int_of_string_opt] reads each field. Cutting the trailing
   number off first splits [loss] and [store_slow] where cutting at '+'
   first would, since no integer contains ':'. *)
let fault_of_string tok =
  let ( let* ) = Result.bind in
  let fail fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "fault %S: %s" tok s)) fmt
  in
  let number what = function
    | Some s -> parse_int (tok ^ ": " ^ what) s
    | None -> Ok 0
  in
  match cut '@' tok with
  | _, None -> fail "missing '@'"
  | head, Some tail -> (
      let name, sel = cut '.' head in
      let* sel =
        match sel with
        | None -> Ok Bare
        | Some s -> (
            match List.find_opt (fun k -> kill_kind_name k = s) kill_kinds with
            | Some kind -> Ok (Kill_kind kind)
            | None -> Result.map (fun v -> Vrf v) (parse_int (tok ^ ": vrf") s))
      in
      match syntax name sel with
      | None -> fail "unknown fault kind %S, or a wrong selector" name
      | Some s ->
          let rest, num =
            match s.sep with Some c -> cut c tail | None -> (tail, None)
          in
          let at, dur = if s.dur = `No then (rest, None) else cut '+' rest in
          match (s.dur, dur, s.sep, num) with
          | `Always, None, _, _ -> fail "expected +DUR"
          | _, _, Some c, None -> fail "expected %cNUM" c
          | _ ->
              let* at = parse_int (tok ^ ": time") at in
              let* dur = number "duration" dur in
              let* num = number "number" num in
              Ok (s.build at dur num))

let of_string line =
  let ( let* ) = Result.bind in
  let line = String.trim line in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | m :: fields when m = magic ->
      let* kvs =
        List.fold_left
          (fun acc field ->
            let* acc = acc in
            match cut '=' field with
            | k, Some v -> Ok ((k, v) :: acc)
            | _, None -> Error (Printf.sprintf "malformed field %S" field))
          (Ok []) fields
      in
      let get k =
        match List.assoc_opt k kvs with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing field %S" k)
      in
      let int_field k =
        let* v = get k in
        parse_int k v
      in
      let* seed = int_field "seed" in
      let* peers = int_field "peers" in
      let* hosts = int_field "hosts" in
      let* peer_prefixes = int_field "ppfx" in
      let* svc_prefixes = int_field "spfx" in
      let* churn = int_field "churn" in
      let* delay_us = int_field "delay" in
      let* window_ms = int_field "window" in
      let* settle_ms = int_field "settle" in
      let* faults_s = get "faults" in
      let* faults =
        if faults_s = "-" then Ok []
        else traverse fault_of_string (String.split_on_char ',' faults_s)
      in
      let t =
        {
          seed;
          peers;
          hosts;
          peer_prefixes;
          svc_prefixes;
          churn;
          delay_us;
          window_ms;
          settle_ms;
          faults;
        }
      in
      let* () = validate t in
      Ok t
  | _ -> Error (Printf.sprintf "expected a %S line" magic)

(* A bare fault-token list (the [faults=] payload alone), validated
   under the same rules as a full descriptor — the fleet CLI's
   [--campaign] argument. *)
let faults_of_string s =
  let ( let* ) = Result.bind in
  let* faults =
    match String.trim s with
    | "" | "-" -> Ok []
    | s ->
        traverse fault_of_string
          (List.map String.trim (String.split_on_char ',' s))
  in
  (* [validate] reads the window only to bound instants. *)
  let window_ms =
    List.fold_left (fun acc f -> max acc (fault_at f)) 1000 faults
  in
  let probe =
    {
      seed = 0;
      peers = 1;
      hosts = 2;
      peer_prefixes = 1;
      svc_prefixes = 1;
      churn = 0;
      delay_us = 200;
      window_ms;
      settle_ms = 0;
      faults;
    }
  in
  let* () = validate probe in
  Ok faults

(* --- Generation ----------------------------------------------------------- *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let sub_seed ~seed i =
  let open Int64 in
  let z =
    mix64 (add (of_int seed) (mul 0x9e3779b97f4a7c15L (of_int (i + 1))))
  in
  to_int z land 0x3FFFFFFFFFFFFFFF

(* The generated envelope keeps every armed checker a valid oracle:

   - Flaps are capped at 150 ms: with the 100 ms x3 BFD window the peer
     never even reaches Down, let alone past the detection bound.
   - BFD perturbation stays in [60%, 150%] of the nominal 100 ms: the
     agent relay still transmits at 100 ms, so the peer's re-armed
     detection window is always fed in time.
   - Heavy faults (kills, planned switchovers) are spaced >= 12 s apart
     so one migration completes before the next failure hits, except for
     the deliberate planned+kill overlap which targets the old primary
     while the controller has detection suspended.
   - Loss bursts and RST/Cease recover within the settle period
     (GR 120 s is advertised on both sides; active reconnect is 5 s).
   - Store faults are exclusive with every instance-level fault (kills,
     planned switchovers, RST/Cease): the store is the recovery
     substrate, so a migration during an outage cannot complete, and a
     peer-initiated reset while degraded is exactly what the
     degraded_mode_exclusion oracle flags. Outages end early enough
     (at + dur bounded well inside window + settle) for the heal probe,
     re-arm and RIB re-checkpoint to finish before end-state checks. *)
let generate ~seed =
  let rng = Sim.Rng.create (sub_seed ~seed:seed 0x5eed) in
  let peers = Sim.Rng.int_in rng 1 3 in
  let hosts = Sim.Rng.int_in rng 3 4 in
  let peer_prefixes = Sim.Rng.int_in rng 50 300 in
  let svc_prefixes = Sim.Rng.int_in rng 20 120 in
  let churn = Sim.Rng.int_in rng 0 3 in
  let delay_us = Sim.Rng.int_in rng 100 800 in
  let window_ms = Sim.Rng.int_in rng 15_000 25_000 in
  let settle_ms = 30_000 in
  let clamp at = min at window_ms in
  let any_vrf () = Sim.Rng.int_in rng 0 (peers - 1) in
  let heavy at =
    match Sim.Rng.int_in rng 0 4 with
    | 0 -> [ Planned { at_ms = at } ]
    | 1 -> [ Kill { at_ms = at; kind = App_failure } ]
    | 2 -> [ Kill { at_ms = at; kind = Container_failure } ]
    | 3 -> [ Kill { at_ms = at; kind = Host_failure } ]
    | _ ->
        let heal = clamp (at + Sim.Rng.int_in rng 6_000 10_000) in
        [ Kill { at_ms = at; kind = Host_network_failure }; Heal { at_ms = heal } ]
  in
  let n_heavy = Sim.Rng.int_in rng 0 2 in
  let heavies = ref [] in
  let heavy_at = ref (Sim.Rng.int_in rng 2_000 6_000) in
  for _ = 1 to n_heavy do
    if !heavy_at <= window_ms - 500 then
      heavies := heavy !heavy_at @ !heavies;
    heavy_at := !heavy_at + Sim.Rng.int_in rng 12_000 16_000
  done;
  (* Double host-level faults would exhaust the host pool; keep at most
     one of each host-scoped kind per schedule. A Heal with no matching
     partition is a harmless no-op, so heals are always kept. *)
  let seen_host = ref false and seen_hostnet = ref false in
  let heavies =
    List.filter
      (function
        | Kill { kind = Host_failure; _ } ->
            if !seen_host then false else (seen_host := true; true)
        | Kill { kind = Host_network_failure; _ } ->
            if !seen_hostnet then false else (seen_hostnet := true; true)
        | _ -> true)
      (List.rev !heavies)
  in
  (* The overlap case: a container dies while the controller is mid
     planned-switchover (detection suspended, old primary frozen). *)
  let overlap =
    match
      List.find_opt (function Planned _ -> true | _ -> false) heavies
    with
    | Some (Planned { at_ms }) when Sim.Rng.bernoulli rng 0.3 ->
        [
          Kill
            {
              at_ms = clamp (at_ms + Sim.Rng.int_in rng 200 1_500);
              kind = Container_failure;
            };
        ]
    | _ -> []
  in
  let light () =
    let at = Sim.Rng.int_in rng 1_000 window_ms in
    let vrf = any_vrf () in
    match Sim.Rng.int_in rng 0 2 with
    | 0 -> Flap { at_ms = at; vrf; dur_ms = Sim.Rng.int_in rng 30 150 }
    | 1 ->
        Loss
          {
            at_ms = at;
            vrf;
            dur_ms = Sim.Rng.int_in rng 500 2_500;
            loss_pct = Sim.Rng.int_in rng 5 30;
          }
    | _ ->
        Bfd_perturb { at_ms = at; vrf; factor_pct = Sim.Rng.int_in rng 60 150 }
  in
  let lights = List.init (Sim.Rng.int_in rng 0 3) (fun _ -> light ()) in
  let first_kill =
    List.find_opt (function Kill _ -> true | _ -> false) heavies
  in
  let transport () =
    (* Aim transport faults into the replay window of a kill when one
       exists: RST/Cease racing the resumed session is the hard case. *)
    let at =
      match first_kill with
      | Some (Kill { at_ms; _ }) -> clamp (at_ms + Sim.Rng.int_in rng 1_500 3_500)
      | _ -> Sim.Rng.int_in rng 3_000 window_ms
    in
    (at, any_vrf ())
  in
  let rst =
    if Sim.Rng.bernoulli rng 0.3 then
      let at_ms, vrf = transport () in
      [ Peer_rst { at_ms; vrf } ]
    else []
  in
  let cease =
    if Sim.Rng.bernoulli rng 0.3 then
      let at_ms, vrf = transport () in
      [ Peer_cease { at_ms; vrf } ]
    else []
  in
  (* Degraded-store survival scenarios. The crash/partition durations
     straddle the runner's held-ACK deadline (0.15 x 90 s hold =
     13.5 s): short outages exercise retry/failover alone, long ones
     force the degrade → re-arm path. A duration of 0 is the permanent
     crash: the replica takes over and the primary never returns. *)
  let store =
    if Sim.Rng.bernoulli rng 0.35 then
      let at = Sim.Rng.int_in rng 2_000 8_000 in
      match Sim.Rng.int_in rng 0 3 with
      | 0 -> [ Store_crash { at_ms = at; dur_ms = 0 } ]
      | 1 ->
          [ Store_crash { at_ms = at; dur_ms = Sim.Rng.int_in rng 6_000 34_000 } ]
      | 2 ->
          [
            Store_partition
              { at_ms = at; dur_ms = Sim.Rng.int_in rng 6_000 34_000 };
          ]
      | _ ->
          [
            Store_slow
              {
                at_ms = at;
                dur_ms = Sim.Rng.int_in rng 2_000 10_000;
                factor_pct = Sim.Rng.int_in rng 200 2_000;
              };
          ]
    else []
  in
  let faults =
    if store <> [] then lights @ store
    else heavies @ overlap @ lights @ rst @ cease
  in
  let faults =
    if faults = [] then heavy (Sim.Rng.int_in rng 2_000 6_000) else faults
  in
  let faults =
    List.stable_sort (fun a b -> compare (fault_at a) (fault_at b)) faults
  in
  {
    seed;
    peers;
    hosts;
    peer_prefixes;
    svc_prefixes;
    churn;
    delay_us;
    window_ms;
    settle_ms;
    faults;
  }
