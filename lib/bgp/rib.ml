type source = {
  key : string;
  peer_asn : int;
  peer_addr : Netsim.Addr.t;
  router_id : Netsim.Addr.t;
  ebgp : bool;
}

type path = { source : source; attrs : Attrs.t; stale : bool }

type change =
  | Best_changed of Netsim.Addr.prefix * path
  | Best_withdrawn of Netsim.Addr.prefix

let m_rib_changes = Telemetry.Registry.counter "bgp.rib_changes"
let m_rib_withdrawals = Telemetry.Registry.counter "bgp.rib_withdrawals"

(* One int per prefix: the base above the length, which takes the low 6
   bits (at most 32). Packed keys order exactly like
   [Netsim.Addr.compare_prefix]. *)
let pack (p : Netsim.Addr.prefix) = (Netsim.Addr.to_int p.base lsl 6) lor p.len
let unpack k = Netsim.Addr.prefix (Netsim.Addr.of_int (k lsr 6)) (k land 63)
let prefix_hash p = Netsim.Addr.hash_int (pack p)

(* Slot keys below zero: never used, or a tombstone left by a removal. *)
let empty = -1
let tomb = -2
let no_node = -1

(* "No path", held by the best-path slot of an empty slot and by a free
   node, so both arrays stay [path array]; only ever compared with [==]. *)
let no_path =
  let nowhere = Netsim.Addr.of_int 0 in
  {
    source =
      { key = ""; peer_asn = 0; peer_addr = nowhere; router_id = nowhere; ebgp = false };
    attrs = Attrs.make ~next_hop:nowhere ();
    stale = false;
  }

(* Prefix slots are open-addressed (linear probing) over parallel arrays.
   A slot's paths form a chain of nodes in two more parallel arrays, newest
   first; free nodes chain through [node_next] from [free]. *)
type t = {
  mutable keys : int array;  (** Packed prefix, [empty] or [tomb]. *)
  mutable heads : int array;  (** First node of the slot's chain. *)
  mutable bests : path array;  (** The chain's best path. *)
  mutable used : int;  (** Live slots plus tombstones. *)
  mutable live : int;
  mutable node_path : path array;
  mutable node_next : int array;
  mutable free : int;
  mutable npaths : int;
}

let initial_slots = 16

(* Chains [n, n'): each free node points at the next. *)
let chain_free next n n' =
  for i = n to n' - 2 do
    next.(i) <- i + 1
  done

let create () =
  let node_next = Array.make initial_slots no_node in
  chain_free node_next 0 initial_slots;
  {
    keys = Array.make initial_slots empty;
    heads = Array.make initial_slots no_node;
    bests = Array.make initial_slots no_path;
    used = 0;
    live = 0;
    node_path = Array.make initial_slots no_path;
    node_next;
    free = 0;
    npaths = 0;
  }

(* --- Decision process --------------------------------------------------- *)

let local_pref_of p = match p.attrs.Attrs.local_pref with Some lp -> lp | None -> 100

let neighbor_as p =
  match p.attrs.Attrs.as_path with
  | Attrs.Seq (asn :: _) :: _ -> Some asn
  | _ -> None

(* Top-level, not local to [better]: these run once per path comparison
   inside every best-path fold. *)
let med_of p = match p.attrs.Attrs.med with Some m -> m | None -> 0
let ebgp_rank p = if p.source.ebgp then 0 else 1

(* RFC 4271 §9.1.2.2, as a strict "a preferred over b" relation. *)
let better a b =
  let cmp =
    let c = Int.compare (local_pref_of b) (local_pref_of a) in
    if c <> 0 then c
    else
      let c =
        Int.compare (Attrs.as_path_length a.attrs) (Attrs.as_path_length b.attrs)
      in
      if c <> 0 then c
      else
        let c =
          Int.compare
            (Attrs.origin_rank a.attrs.Attrs.origin)
            (Attrs.origin_rank b.attrs.Attrs.origin)
        in
        if c <> 0 then c
        else
          let med_cmp =
            (* MED comparable only between paths from the same
               neighbouring AS; missing MED is best (0). *)
            match (neighbor_as a, neighbor_as b) with
            | Some na, Some nb when na = nb ->
                Int.compare (med_of a) (med_of b)
            | _ -> 0
          in
          if med_cmp <> 0 then med_cmp
          else
            let c = Int.compare (ebgp_rank a) (ebgp_rank b) in
            if c <> 0 then c
            else
              let c =
                Netsim.Addr.compare a.source.router_id b.source.router_id
              in
              if c <> 0 then c
              else Netsim.Addr.compare a.source.peer_addr b.source.peer_addr
  in
  cmp < 0

let same_best a b =
  a == b
  || a != no_path && b != no_path
     && String.equal a.source.key b.source.key
     && Attrs.equal a.attrs b.attrs

(* --- Prefix slots -------------------------------------------------------- *)

let home key mask = Netsim.Addr.hash_int key land mask

(* [key]'s slot, or -1. Tombstones do not end a probe. *)
let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key then i
  else if k = empty then -1
  else probe keys mask key ((i + 1) land mask)

let find t key =
  let mask = Array.length t.keys - 1 in
  probe t.keys mask key (home key mask)

(* [key]'s slot, or [lnot s] for the slot a new [key] takes: the first
   tombstone on its probe path, else the empty slot that ends it. *)
let rec probe_insert keys mask key i reuse =
  let k = keys.(i) in
  if k = key then i
  else if k = empty then lnot (if reuse >= 0 then reuse else i)
  else
    probe_insert keys mask key ((i + 1) land mask)
      (if reuse < 0 && k = tomb then i else reuse)

(* Rehashes the live slots into [cap'] slots, dropping the tombstones. *)
let rehash t cap' =
  let cap = Array.length t.keys in
  let keys = t.keys and heads = t.heads and bests = t.bests in
  t.keys <- Array.make cap' empty;
  t.heads <- Array.make cap' no_node;
  t.bests <- Array.make cap' no_path;
  t.used <- t.live;
  let mask = cap' - 1 in
  for s = 0 to cap - 1 do
    let k = keys.(s) in
    if k >= 0 then begin
      let s' = lnot (probe_insert t.keys mask k (home k mask) (-1)) in
      t.keys.(s') <- k;
      t.heads.(s') <- heads.(s);
      t.bests.(s') <- bests.(s)
    end
  done

(* Doubles when the live slots fill more than half of the 3/4 threshold;
   otherwise only the tombstones go. *)
let resize t =
  let cap = Array.length t.keys in
  rehash t (if 8 * (t.live + 1) > 3 * cap then 2 * cap else cap)

(* [key]'s slot, claimed if the prefix is new. *)
let rec claim t key =
  let mask = Array.length t.keys - 1 in
  let s = probe_insert t.keys mask key (home key mask) (-1) in
  if s >= 0 then s
  else
    let s = lnot s in
    let fresh = t.keys.(s) = empty in
    if fresh && 4 * (t.used + 1) > 3 * (mask + 1) then begin
      resize t;
      claim t key
    end
    else begin
      if fresh then t.used <- t.used + 1;
      t.keys.(s) <- key;
      t.live <- t.live + 1;
      s
    end

(* The slot's last path went: leave a tombstone, so the probe paths that
   run through it (and slot indices under a source walk) stay valid. *)
let vacate t s =
  t.keys.(s) <- tomb;
  t.heads.(s) <- no_node;
  t.bests.(s) <- no_path;
  t.live <- t.live - 1

(* --- Path chains --------------------------------------------------------- *)

(* Grows the pool to [n'] nodes; the new ones join the free list. *)
let grow_pool t n' =
  let n = Array.length t.node_path in
  let node_path = Array.make n' no_path in
  Array.blit t.node_path 0 node_path 0 n;
  let node_next = Array.make n' no_node in
  Array.blit t.node_next 0 node_next 0 n;
  chain_free node_next n n';
  node_next.(n' - 1) <- t.free;
  t.node_path <- node_path;
  t.node_next <- node_next;
  t.free <- n

let new_node t path next =
  if t.free = no_node then grow_pool t (2 * Array.length t.node_path);
  let n = t.free in
  t.free <- t.node_next.(n);
  t.node_path.(n) <- path;
  t.node_next.(n) <- next;
  n

let is_from key ~stale_only p =
  String.equal p.source.key key && ((not stale_only) || p.stale)

(* Unlinks and frees the node after [prev] (the chain's head when [prev]
   is [no_node]) holding [key]'s path, or only its stale path. *)
let rec unlink_from t s key ~stale_only prev n =
  if n = no_node then false
  else
    let next = t.node_next.(n) in
    if is_from key ~stale_only t.node_path.(n) then begin
      if prev = no_node then t.heads.(s) <- next else t.node_next.(prev) <- next;
      t.node_path.(n) <- no_path;
      t.node_next.(n) <- t.free;
      t.free <- n;
      t.npaths <- t.npaths - 1;
      true
    end
    else unlink_from t s key ~stale_only n next

let unlink t s key ~stale_only =
  unlink_from t s key ~stale_only no_node t.heads.(s)

(* Keeps the first of equally preferred paths, newest first. *)
let rec best_from t acc n =
  if n = no_node then acc
  else
    let p = t.node_path.(n) in
    best_from t (if better p acc then p else acc) t.node_next.(n)

let select_best t s =
  let n = t.heads.(s) in
  if n = no_node then no_path else best_from t t.node_path.(n) t.node_next.(n)

(* Recomputes slot [s]'s best path after its chain changed, freeing the
   slot when the chain is empty; true when the best path changed. *)
let settle t s =
  let old_best = t.bests.(s) in
  let new_best = select_best t s in
  if new_best == no_path then vacate t s else t.bests.(s) <- new_best;
  not (same_best old_best new_best)

(* The change a [settle] that returned true reports. *)
let change_at t s prefix =
  let best = t.bests.(s) in
  if best == no_path then begin
    Telemetry.Registry.incr m_rib_withdrawals;
    Best_withdrawn prefix
  end
  else begin
    Telemetry.Registry.incr m_rib_changes;
    Best_changed (prefix, best)
  end

(* Links [path] into [key]'s slot in place of its source's previous path. *)
let place t path key =
  let s = claim t key in
  ignore (unlink t s path.source.key ~stale_only:false);
  t.heads.(s) <- new_node t path t.heads.(s);
  t.npaths <- t.npaths + 1;
  s

(* Doubling from [cap] until [n] prefixes fill at most 3/4 of the slots,
   or until [n] paths fit the pool: the sizes one-at-a-time inserts
   reach. *)
let rec slots_for n cap = if 4 * n <= 3 * cap then cap else slots_for n (2 * cap)
let rec nodes_for n pool = if n <= pool then pool else nodes_for n (2 * pool)

let reserve t n =
  let cap = Array.length t.keys in
  if 4 * n > 3 * cap then rehash t (slots_for n cap);
  let pool = Array.length t.node_path in
  if n > pool then grow_pool t (nodes_for n pool)

let update t source prefix attrs =
  let key = pack prefix in
  match attrs with
  | Some attrs ->
      let s = place t { source; attrs; stale = false } key in
      if settle t s then Some (change_at t s prefix) else None
  | None ->
      let s = find t key in
      if s >= 0 && unlink t s source.key ~stale_only:false && settle t s then
        Some (change_at t s prefix)
      else None

let install t path prefix acc =
  let s = place t path (pack prefix) in
  (* lint: allow h1 — the change list is install's result: one cell per best-path change, none per path *)
  if settle t s then change_at t s prefix :: acc else acc

let best t prefix =
  let s = find t (pack prefix) in
  if s < 0 then None else Some t.bests.(s)

let rec chain_paths t n =
  if n = no_node then [] else t.node_path.(n) :: chain_paths t t.node_next.(n)

let candidates t prefix =
  let s = find t (pack prefix) in
  if s < 0 then []
  else
    List.sort (fun a b -> if better a b then -1 else 1) (chain_paths t t.heads.(s))

let size t = t.live
let path_count t = t.npaths

(* --- Whole-table traversals ---------------------------------------------- *)

(* Traversals that report in prefix order sort the live packed keys, and
   the digest sorts prefix strings, so adj-out update batches, change
   lists, digests and telemetry do not depend on the table's insertion
   history. *)

let rec holds t key ~stale_only n =
  n <> no_node
  && (is_from key ~stale_only t.node_path.(n)
     || holds t key ~stale_only t.node_next.(n))

(* The packed keys of the live slots, or of those holding a path from
   [key] (only a stale one with [stale_only]), ascending. *)
let sorted_keys ?key ?(stale_only = false) t =
  let out = Array.make t.live 0 in
  let n = ref 0 in
  for s = 0 to Array.length t.keys - 1 do
    let k = t.keys.(s) in
    if
      k >= 0
      &&
      match key with
      | None -> true
      | Some key -> holds t key ~stale_only t.heads.(s)
    then begin
      out.(!n) <- k;
      incr n
    end
  done;
  let out = if !n = t.live then out else Array.sub out 0 !n in
  Array.sort Int.compare out;
  out

let fold_best t ~init ~f =
  let keys = sorted_keys t in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    acc := f !acc (unpack k) t.bests.(find t k)
  done;
  !acc

let learned_from source_key p =
  match source_key with
  | None -> true
  | Some k -> String.equal p.source.key k

(* The prefix strings sort by themselves: slot order is good enough. *)
let best_strings source_key t =
  let out = Array.make t.live "" in
  let n = ref 0 in
  for s = 0 to Array.length t.keys - 1 do
    let k = t.keys.(s) in
    if k >= 0 && learned_from source_key t.bests.(s) then begin
      out.(!n) <- Netsim.Addr.prefix_to_string (unpack k);
      incr n
    end
  done;
  let out = if !n = t.live then out else Array.sub out 0 !n in
  Array.sort String.compare out;
  out

let best_prefixes ?source_key t = Array.to_list (best_strings source_key t)

let hex_digits = "0123456789abcdef"

(* [%016Lx] without the Printf machinery (h1 budget). *)
let hex16 v =
  let out = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble =
      Int64.to_int (Int64.shift_right_logical v ((15 - i) * 4)) land 0xF
    in
    Bytes.unsafe_set out i (String.unsafe_get hex_digits nibble)
  done;
  Bytes.unsafe_to_string out

(* FNV-1a over the sorted best-path prefix strings, one '\n' after each:
   a cheap order-insensitive fingerprint for comparing two tables'
   coverage (attributes deliberately excluded — AS paths legitimately
   differ between the advertising and the learning side). The hash lives
   in a local ref that never escapes, so ocamlopt keeps it unboxed and
   the fold allocates nothing. *)
let fnv_prime = 0x100000001b3L

let digest ?source_key t =
  let lines = best_strings source_key t in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Array.length lines - 1 do
    let s = lines.(i) in
    for j = 0 to String.length s - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s j))))
          fnv_prime
    done;
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code '\n'))) fnv_prime
  done;
  hex16 !h

(* Removes [key]'s paths (only its stale ones with [stale_only]) and
   reports the best-path changes in ascending prefix order. *)
let drop_source t ~key ~stale_only =
  let keys = sorted_keys ~key ~stale_only t in
  let changes = ref [] in
  for i = Array.length keys - 1 downto 0 do
    let k = keys.(i) in
    let s = find t k in
    if unlink t s key ~stale_only && settle t s then
      changes := change_at t s (unpack k) :: !changes
  done;
  !changes

let remove_source t ~key = drop_source t ~key ~stale_only:false
let sweep_stale t ~key = drop_source t ~key ~stale_only:true

(* Marks [key]'s path in the chain from [n] stale; true if it was fresh. *)
let rec mark_from t key n =
  n <> no_node
  &&
  let p = t.node_path.(n) in
  if String.equal p.source.key key then begin
    if p.stale then false
    else begin
      t.node_path.(n) <- { p with stale = true };
      true
    end
  end
  else mark_from t key t.node_next.(n)

(* Counts and per-slot marks do not depend on order: no sort. *)
let mark_source_stale t ~key =
  let marked = ref 0 in
  for s = 0 to Array.length t.keys - 1 do
    if t.keys.(s) >= 0 && mark_from t key t.heads.(s) then begin
      incr marked;
      (* The best path may be the replaced record; refresh it without
         reporting a change (attrs are unchanged). *)
      t.bests.(s) <- select_best t s
    end
  done;
  !marked

let stale_count t ~key =
  let n = ref 0 in
  for s = 0 to Array.length t.keys - 1 do
    if t.keys.(s) >= 0 && holds t key ~stale_only:true t.heads.(s) then incr n
  done;
  !n
