(* Committed-findings baseline: the CI gate fails only on findings that
   are not in the baseline, so the repo can adopt the linter at zero and
   stay there. Matching is by (pass, file, message) — line numbers churn
   with unrelated edits — and is multiset-aware: two identical findings
   need two baseline entries. *)

type entry = { b_pass : string; b_file : string; b_message : string }

let of_finding (f : Finding.t) =
  { b_pass = f.pass; b_file = f.file; b_message = f.message }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> (
      match Monitor.Json.parse text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok json -> (
          match Option.bind (Monitor.Json.member "findings" json)
                  Monitor.Json.to_list
          with
          | None -> Error (path ^ ": no \"findings\" array")
          | Some items ->
              let entry item =
                let str k =
                  Option.bind (Monitor.Json.member k item) Monitor.Json.to_str
                in
                match (str "pass", str "file", str "message") with
                | Some b_pass, Some b_file, Some b_message ->
                    Ok { b_pass; b_file; b_message }
                | _ -> Error (path ^ ": baseline entry missing pass/file/message")
              in
              List.fold_left
                (fun acc item ->
                  match (acc, entry item) with
                  | Error e, _ -> Error e
                  | _, Error e -> Error e
                  | Ok l, Ok e -> Ok (e :: l))
                (Ok []) items
              |> Result.map List.rev))

(* Pairs findings with baseline entries, each entry absorbing one: the
   findings left unabsorbed and the entries that absorbed none. *)
let absorb entries findings =
  let remaining = ref entries in
  let fresh =
    List.filter
      (fun f ->
        let e = of_finding f in
        let rec take acc = function
          | [] -> None
          | x :: rest when x = e -> Some (List.rev_append acc rest)
          | x :: rest -> take (x :: acc) rest
        in
        match take [] !remaining with
        | Some rest ->
            remaining := rest;
            false
        | None -> true)
      findings
  in
  (fresh, !remaining)

let diff entries findings = fst (absorb entries findings)
let stale entries findings = snd (absorb entries findings)

let entry_to_string e = Printf.sprintf "[%s] %s: %s" e.b_pass e.b_file e.b_message
