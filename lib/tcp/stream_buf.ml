type t = {
  mutable chunks : (int * string) array; (* (start_seq, bytes), sorted *)
  mutable head : int; (* index of first live chunk *)
  mutable count : int; (* live chunks: indices head .. head+count-1 *)
  mutable start : int; (* first retained byte (may sit inside head chunk) *)
  mutable stop : int; (* one past last written byte *)
  mutable cursor : int; (* index hint for sequential reads *)
}

let create seq =
  {
    chunks = Array.make 32 (0, "");
    head = 0;
    count = 0;
    start = seq;
    stop = seq;
    cursor = 0;
  }

let start_seq t = t.start
let end_seq t = t.stop

let compact t =
  if t.head > 0 then begin
    Array.blit t.chunks t.head t.chunks 0 t.count;
    t.cursor <- max 0 (t.cursor - t.head);
    t.head <- 0
  end

let append t s =
  if String.length s > 0 then begin
    if t.head + t.count = Array.length t.chunks then begin
      compact t;
      if t.count = Array.length t.chunks then begin
        let arr = Array.make (2 * Array.length t.chunks) (0, "") in
        Array.blit t.chunks 0 arr 0 t.count;
        t.chunks <- arr
      end
    end;
    t.chunks.(t.head + t.count) <- (t.stop, s);
    t.count <- t.count + 1;
    t.stop <- t.stop + String.length s
  end

let drop_until t seq =
  if seq > t.start then begin
    let seq = min seq t.stop in
    t.start <- seq;
    while
      t.count > 0
      &&
      let cseq, cs = t.chunks.(t.head) in
      cseq + String.length cs <= seq
    do
      t.chunks.(t.head) <- (0, "");
      t.head <- t.head + 1;
      t.count <- t.count - 1
    done;
    if t.count = 0 then begin
      t.head <- 0;
      t.cursor <- 0
    end
    else if t.head > Array.length t.chunks / 2 then compact t
  end

(* Index of the chunk containing [seq], assuming start <= seq < stop. *)
let locate t seq =
  let in_chunk i =
    let cseq, cs = t.chunks.(i) in
    seq >= cseq && seq < cseq + String.length cs
  in
  let hint = max t.head (min t.cursor (t.head + t.count - 1)) in
  if t.count > 0 && in_chunk hint then hint
  else begin
    (* Binary search over live chunks. *)
    let lo = ref t.head and hi = ref (t.head + t.count - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      let cseq, _ = t.chunks.(mid) in
      if cseq <= seq then lo := mid else hi := mid - 1
    done;
    !lo
  end

let read t ~seq ~len =
  if seq < t.start then
    invalid_arg
      (Printf.sprintf "Stream_buf.read: seq %d below start %d" seq t.start);
  if len <= 0 || seq >= t.stop then ""
  else begin
    let len = min len (t.stop - seq) in
    let i = locate t seq in
    t.cursor <- i;
    let cseq, cs = t.chunks.(i) in
    if cseq = seq && String.length cs = len then cs (* zero-copy fast path *)
    else if seq - cseq + len <= String.length cs then
      String.sub cs (seq - cseq) len
    else begin
      (* Gather across chunks. *)
      let buf = Buffer.create len in
      let j = ref i and pos = ref seq in
      while Buffer.length buf < len do
        let cseq, cs = t.chunks.(!j) in
        let off = !pos - cseq in
        let take = min (String.length cs - off) (len - Buffer.length buf) in
        Buffer.add_substring buf cs off take;
        pos := !pos + take;
        incr j
      done;
      Buffer.contents buf
    end
  end

let chunks_from t ~seq =
  if t.count = 0 || seq >= t.stop then []
  else begin
    let seq = max seq t.start in
    let i = locate t seq in
    let out = ref [] in
    for j = t.head + t.count - 1 downto i do
      let cseq, cs = t.chunks.(j) in
      if cseq >= seq then out := (cseq, cs) :: !out
      else
        let off = seq - cseq in
        out := (seq, String.sub cs off (String.length cs - off)) :: !out
    done;
    !out
  end
