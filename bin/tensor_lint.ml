(* tensor-lint: the repo's determinism & protocol-safety linter.

     tensor-lint                         # lint Lint.Driver.lint_paths
     tensor-lint --jobs 4                # fan the per-file scan over domains
     tensor-lint --json lib/bgp          # machine-readable report
     tensor-lint --baseline FILE PATHS   # fail on NEW findings and stale entries
     tensor-lint --update-baseline FILE  # rewrite the baseline from HEAD
     tensor-lint --github                # ::error/::warning annotations too
     tensor-lint --list-passes           # pass catalogue
     tensor-lint --explain h1            # rationale, example, suppression

   A baseline entry under PATHS that absorbs no finding is stale: the
   finding went away and the entry must go too, or it would absorb the
   next finding like it.

   Whatever PATHS name, i1 counts readers over every lint path and
   reader path (Lint.Driver.reader_paths) under the working directory,
   so a partial run judges exports as the full one does.

   Exit status: 0 clean, 1 new findings or stale baseline entries, 2
   usage or I/O error. *)

let usage =
  "tensor-lint [--jobs N] [--json] [--github] [--baseline FILE] \
   [--update-baseline FILE] [--list-passes] [--explain PASS] [PATHS...]"

let () =
  let json = ref false in
  let github = ref false in
  let jobs = ref 1 in
  let baseline = ref None in
  let update_baseline = ref None in
  let list_passes = ref false in
  let explain = ref None in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " Emit a JSON report on stdout");
      ( "--github",
        Arg.Set github,
        " Also emit GitHub ::error/::warning annotations for new findings" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N Scan files on N domains (deterministic merge; default 1)" );
      ( "--baseline",
        Arg.String (fun f -> baseline := Some f),
        "FILE Fail only on findings absent from FILE, and on FILE's \
         entries that match no finding" );
      ( "--update-baseline",
        Arg.String (fun f -> update_baseline := Some f),
        "FILE Write the current findings to FILE and exit 0" );
      ("--list-passes", Arg.Set list_passes, " Print the pass catalogue");
      ( "--explain",
        Arg.String (fun p -> explain := Some p),
        "PASS Print the pass's rationale, a minimal example and the \
         suppression grammar" );
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun p -> paths := p :: !paths) usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  (match !explain with
  | Some name -> (
      match Lint.Driver.explain name with
      | Some text ->
          print_endline text;
          exit 0
      | None ->
          Printf.eprintf "tensor-lint: unknown pass %S; try --list-passes\n"
            name;
          exit 2)
  | None -> ());
  if !list_passes then begin
    List.iter
      (fun (p : Lint.Pass.t) ->
        Printf.printf "%-4s %-7s %s%s\n" p.name
          (Lint.Finding.severity_to_string p.severity)
          p.doc
          (if p.graph_check <> None then " [call-graph]" else ""))
      Lint.Driver.passes;
    Printf.printf "%-4s %-7s %s\n" Lint.Suppress.meta_pass "error"
      "meta: malformed, reasonless, unknown-pass or unused suppressions";
    Printf.printf "%-4s %-7s %s\n" "parse" "error"
      "meta: files must parse (not suppressible)";
    exit 0
  end;
  let paths = if !paths = [] then Lint.Driver.lint_paths else List.rev !paths in
  (match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | [] -> ()
  | missing ->
      Printf.eprintf "tensor-lint: no such path: %s\n"
        (String.concat ", " missing);
      exit 2);
  let report =
    Lint.Driver.run ~jobs:!jobs
      ~readers:(Lint.Driver.lint_paths @ Lint.Driver.reader_paths)
      ~paths ()
  in
  (* Only entries under the linted paths can be judged stale. *)
  let in_scope (e : Lint.Baseline.entry) =
    List.exists
      (fun p ->
        p = "." || e.b_file = p
        || String.starts_with ~prefix:(Filename.concat p "") e.b_file)
      paths
  in
  let new_findings, stale =
    match !baseline with
    | None -> (report.findings, [])
    | Some file -> (
        match Lint.Baseline.load file with
        | Ok entries ->
            ( Lint.Baseline.diff entries report.findings,
              List.filter in_scope (Lint.Baseline.stale entries report.findings) )
        | Error e ->
            Printf.eprintf "tensor-lint: bad baseline: %s\n" e;
            exit 2)
  in
  (match !update_baseline with
  | Some file ->
      let oc = open_out_bin file in
      output_string oc (Lint.Driver.to_json report ~new_findings);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "tensor-lint: wrote %d finding(s) to %s\n"
        (List.length report.findings)
        file;
      exit 0
  | None -> ());
  print_endline
    (if !json then Lint.Driver.to_json report ~new_findings
     else Lint.Driver.to_text report ~new_findings);
  if !github && new_findings <> [] then
    print_endline (Lint.Driver.to_github ~new_findings);
  if stale <> [] then begin
    (* Keep a --json stdout parseable. *)
    let out = if !json then stderr else stdout in
    Printf.fprintf out
      "%d stale baseline entr%s (no finding matches; remove from the \
       baseline):\n"
      (List.length stale)
      (if List.length stale = 1 then "y" else "ies");
    List.iter
      (fun e -> Printf.fprintf out "  %s\n" (Lint.Baseline.entry_to_string e))
      stale;
    if !github then
      List.iter
        (fun e ->
          Printf.printf "::error::stale baseline entry %s\n"
            (Lint.Baseline.entry_to_string e))
        stale
  end;
  exit (if new_findings = [] && stale = [] then 0 else 1)
