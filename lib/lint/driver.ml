let passes =
  [
    Pass_d1.pass;
    Pass_d2.pass;
    Pass_d3.pass;
    Pass_d4.pass;
    Pass_d5.pass;
    Pass_h1.pass;
    Pass_i1.pass;
    Pass_p1.pass;
    Pass_p2.pass;
    Pass_p3.pass;
  ]

let lint_paths = [ "lib"; "bin"; "bench"; "examples" ]
let reader_paths = [ "perfsuite"; "test" ]

let known_passes =
  Suppress.meta_pass :: List.map (fun p -> p.Pass.name) passes

let parse_finding ~file ~loc msg =
  let p = loc.Location.loc_start in
  Finding.v ~pass:"parse" ~severity:Finding.Error ~file
    ~line:(max 1 p.Lexing.pos_lnum)
    ~col:(max 0 (p.Lexing.pos_cnum - p.Lexing.pos_bol))
    msg

(* compiler-libs lexing/parsing touches shared global state
   (Docstrings, Location input tracking), so the parse step is the one
   serialized section of the parallel scan; the per-file passes and
   suppression scanning run truly concurrently. *)
let parse_mutex = Mutex.create ()

(* An interface parses to a signature, everything else to a structure. *)
type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

let parse_file ~file source =
  Mutex.protect parse_mutex (fun () ->
      let lexbuf = Lexing.from_string source in
      Lexing.set_filename lexbuf file;
      match
        if Filename.check_suffix file ".mli" then Intf (Parse.interface lexbuf)
        else Impl (Parse.implementation lexbuf)
      with
      | exception Syntaxerr.Error e ->
          Error
            (parse_finding ~file ~loc:(Syntaxerr.location_of_error e)
               "syntax error")
      | exception Lexer.Error (_, loc) ->
          Error (parse_finding ~file ~loc "lexer error")
      | exception _ ->
          Error (parse_finding ~file ~loc:Location.none "unparseable source")
      | ast -> Ok ast)

let file_passes ~file str =
  let ctx = { Pass.file } in
  List.concat_map (fun p -> p.Pass.check ctx str) passes

let graph_passes graph =
  List.concat_map
    (fun p ->
      match p.Pass.graph_check with None -> [] | Some f -> f graph)
    passes

(* The per-file stage's output: everything later stages need, so a
   worker domain never re-reads or re-parses. *)
type scanned = {
  s_file : string;
  s_ast : ast option;  (* None: did not parse *)
  s_findings : Finding.t list;  (* per-file pass or parse findings *)
  s_directives : Suppress.directive list;
}

let scan_source ~file source =
  match parse_file ~file source with
  | Error f ->
      { s_file = file; s_ast = None; s_findings = [ f ]; s_directives = [] }
  | Ok ast ->
      {
        s_file = file;
        s_ast = Some ast;
        s_findings =
          (match ast with Impl str -> file_passes ~file str | Intf _ -> []);
        s_directives = Suppress.scan source;
      }

(* A reader source only feeds i1's reader index: parsed, never linted. *)
let parse_reader ~file source =
  match parse_file ~file source with
  | Ok (Impl str) -> Some (file, str)
  | Ok (Intf _) | Error _ -> None

(* Repo passes over the call graph, then per-file suppression over the
   union of both stages' findings. Shared by [run] and [lint_sources]
   so a single-file fixture exercises the interprocedural passes too
   (its file path decides which manifest roots it can match). *)
let finalize ~readers scanned =
  let graph =
    Callgraph.build
      ~interfaces:
        (List.filter_map
           (fun s ->
             match s.s_ast with Some (Intf sg) -> Some (s.s_file, sg) | _ -> None)
           scanned)
      ~readers
      (List.filter_map
         (fun s ->
           match s.s_ast with Some (Impl str) -> Some (s.s_file, str) | _ -> None)
         scanned)
  in
  let repo_findings = graph_passes graph in
  let for_file file =
    List.filter
      (fun (f : Finding.t) ->
        String.equal (Pass.normalize f.file) (Pass.normalize file))
      repo_findings
  in
  List.fold_left
    (fun (fs, n) s ->
      let found, suppressed =
        Suppress.apply ~file:s.s_file ~known_passes s.s_directives
          (s.s_findings @ for_file s.s_file)
      in
      (found :: fs, n + suppressed))
    ([], 0) scanned

let lint_sources ?(readers = []) sources =
  let readers = List.filter_map (fun (file, src) -> parse_reader ~file src) readers in
  let findings, suppressed =
    finalize ~readers
      (List.map (fun (file, source) -> scan_source ~file source) sources)
  in
  (List.sort Finding.compare (List.concat findings), suppressed)

let rec files_under path =
  if not (Sys.file_exists path) then []
  else if not (Sys.is_directory path) then
    if List.exists (Filename.check_suffix path) [ ".ml"; ".mli" ] then [ path ]
    else []
  else
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun name ->
             if name = "_build" || (name <> "" && name.[0] = '.') then []
             else files_under (Filename.concat path name))

type report = {
  findings : Finding.t list;
  files : int;
  suppressed : int;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run ?(jobs = 1) ~readers ~paths () =
  let files = Array.of_list (List.concat_map files_under paths) in
  let linted = Array.to_list (Array.map Pass.normalize files) in
  let reader_files =
    List.concat_map files_under readers
    |> List.filter (fun f -> not (List.mem (Pass.normalize f) linted))
    |> Array.of_list
  in
  (* Per-file scans fan out over the domain pool; results come back in
     index order (= the sorted directory walk), so findings, baseline
     diffs and reports are byte-identical for every --jobs value. *)
  let scan f files =
    fst
      (Par.Pool.run ~jobs (Array.length files) (fun i ->
           f ~file:files.(i) (read_file files.(i))))
  in
  let findings, suppressed =
    finalize
      ~readers:(List.filter_map Fun.id (Array.to_list (scan parse_reader reader_files)))
      (Array.to_list (scan scan_source files))
  in
  {
    findings = List.sort Finding.compare (List.concat findings);
    files = Array.length files;
    suppressed;
  }

(* --- Reporters ----------------------------------------------------------- *)

let summary_line report ~new_findings =
  Printf.sprintf
    "%d file(s), %d finding(s) (%d new), %d suppression(s) honoured"
    report.files
    (List.length report.findings)
    (List.length new_findings)
    report.suppressed

let to_text report ~new_findings =
  let baseline_note =
    if List.length new_findings <> List.length report.findings then
      Printf.sprintf " [%d baselined]"
        (List.length report.findings - List.length new_findings)
    else ""
  in
  String.concat "\n"
    (List.map Finding.to_string new_findings
    @ [ summary_line report ~new_findings ^ baseline_note ])

let esc = Telemetry.Event.json_escape

let finding_json (f : Finding.t) =
  Printf.sprintf
    "{\"pass\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
    (esc f.pass)
    (Finding.severity_to_string f.severity)
    (esc f.file) f.line f.col (esc f.message)

let to_json report ~new_findings =
  Printf.sprintf
    "{\"version\":1,\"tool\":\"tensor-lint\",\"summary\":{\"files\":%d,\"findings\":%d,\"new\":%d,\"suppressed\":%d},\"findings\":[%s],\"new_findings\":[%s]}"
    report.files
    (List.length report.findings)
    (List.length new_findings)
    report.suppressed
    (String.concat "," (List.map finding_json report.findings))
    (String.concat "," (List.map finding_json new_findings))

(* GitHub workflow-command annotations for the NEW findings: one
   ::error/::warning line each, so a CI failure lands on the offending
   line of the diff view. Properties take %/CR/LF escapes; the message
   additionally strips commas-in-properties concerns by keeping file
   in properties and everything else in the free-form message. *)
let github_escape ~property s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | ',' when property -> Buffer.add_string b "%2C"
      | ':' when property -> Buffer.add_string b "%3A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_github ~new_findings =
  String.concat "\n"
    (List.map
       (fun (f : Finding.t) ->
         Printf.sprintf "::%s file=%s,line=%d,col=%d,title=tensor-lint %s::%s"
           (match f.severity with
           | Finding.Error -> "error"
           | Finding.Warning -> "warning")
           (github_escape ~property:true f.file)
           f.line (f.col + 1)
           (github_escape ~property:true f.pass)
           (github_escape ~property:false f.message))
       new_findings)

(* --- --explain ----------------------------------------------------------- *)

(* Assembled at runtime so this literal never looks like a directive
   to the suppression scanner. *)
let suppression_grammar =
  String.concat ""
    [
      "Suppression grammar: a comment on the finding's line (or the \
       line above) of the form\n";
      "    (* lint";
      ": allow <pass>[,<pass>...] \xe2\x80\x94 reason *)\n";
      "The reason is mandatory (an ASCII \"--\" separator also works); \
       reasonless, unknown-pass and unused suppressions are themselves \
       errors under the \"suppress\" meta pass.";
    ]

let explain name =
  match List.find_opt (fun p -> String.equal p.Pass.name name) passes with
  | None -> None
  | Some p ->
      Some
        (String.concat "\n"
           [
             Printf.sprintf "%s (%s) — %s" p.Pass.name
               (Finding.severity_to_string p.Pass.severity)
               p.Pass.doc;
             "";
             "Why: " ^ p.Pass.rationale;
             "";
             "Minimal example that trips it:";
             "    " ^ p.Pass.example;
             "";
             suppression_grammar;
           ])
