type entry = { seq : int; at : Sim.Time.t; event : Event.t }

(* The whole bus is domain-local: the log and the sequence counter.
   Each domain of a parallel campaign records its runs into a private
   bus whose [seq] starts at 0 exactly like a fresh process, which is
   what keeps per-run telemetry digests independent of how runs are
   spread across domains. The log is newest first, so an append is one
   cons and a mark is the list itself. *)
type state = { mutable seq_counter : int; mutable log : entry list }

let key = Domain.DLS.new_key (fun () -> { seq_counter = 0; log = [] })
let state () = Domain.DLS.get key

let emit eng event =
  if Gate.on () then begin
    let st = state () in
    st.seq_counter <- st.seq_counter + 1;
    let e = { seq = st.seq_counter; at = Sim.Engine.now eng; event } in
    st.log <- e :: st.log
  end

let events () = List.rev (state ()).log

type mark = entry list

let mark () = (state ()).log

(* Walks back from the newest entry to [mark]; a log cleared since
   never reaches it and yields the whole of the new log. *)
let since mark =
  let rec take acc = function
    | l when l == mark -> acc
    | [] -> acc
    | e :: older -> take (e :: acc) older
  in
  take [] (state ()).log

let clear () =
  let st = state () in
  st.log <- [];
  st.seq_counter <- 0

let to_jsonl buf entries =
  List.iter
    (fun e ->
      let body = Event.to_json e.event in
      (* body = {"cat":...}; splice seq/time in front. *)
      Buffer.add_string buf
        (Printf.sprintf "{\"seq\":%d,\"t_ns\":%d,%s\n" e.seq e.at
           (String.sub body 1 (String.length body - 1))))
    entries
