(* Hidden fault flags, one per checker, used by the mutation tests to
   prove the checkers are not vacuously green: seeding a fault must trip
   exactly the corresponding checker and nothing else.

   Each flag is read at one surgical point in the product code. Faults
   are either genuinely behavioral (skip a fence, leak a queue) when the
   misbehavior provably does not cascade into other invariants, or they
   corrupt the *observable signal* at the event-emission site (repair
   byte counters) when real corruption would stall the scenario and trip
   several checkers at once. *)

type flag = { name : string; on : bool ref }

(* Deliberately process-global, not Domain.DLS: every flag below is
   created exactly once at module initialization (on the main domain),
   so a domain-local registry would be empty on campaign workers. The
   flags are test-only toggles that default to off and are written only
   by the sequential mutation tests — never during a parallel
   campaign — so sharing them read-only across domains is safe. *)
(* lint: allow d4 -- flags are minted once at init; a DLS registry would be empty on worker domains *)
let registry : flag list ref = ref []

let make name =
  let on = ref false in
  registry := !registry @ [ { name; on } ];
  on

let peer_reset = make "peer_reset"
let repair_gap = make "repair_gap"
let early_ack_release = make "early_ack_release"
let bfd_slow_detect = make "bfd_slow_detect"
let skip_rib_restore = make "skip_rib_restore"
let no_fence = make "no_fence"
let flap_on_migration = make "flap_on_migration"
let leak_held_acks = make "leak_held_acks"
let late_degrade = make "late_degrade"
let exceed_wave_bound = make "exceed_wave_bound"

let active () = List.filter_map (fun f -> if !(f.on) then Some f.name else None) !registry

let with_fault on k =
  on := true;
  Fun.protect ~finally:(fun () -> on := false) k
