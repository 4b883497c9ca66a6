(* h1 — hot-path allocation budget (interprocedural, warn -> baseline).

   BENCH_pr8_quick.json puts the fig5a event loop at ~440 allocated bytes
   per simulated event, and ROADMAP item 2 says that loop is the
   ceiling on everything. This pass walks the call graph from the
   hot-root manifest (Hot_roots.hot_paths) to a small hop budget and
   flags the allocation idioms that creep into handlers three calls
   deep: Printf/Format formatting, list and tuple construction, string
   concatenation, and per-call closure creation.

   Findings are warnings: the committed baseline carries the audited
   remainder (each either inherent — e.g. an event action closure must
   capture state — or queued against the ROADMAP item that removes
   it), so CI fails only when a hot path picks up a NEW allocation.

   Cold contexts are skipped: arguments of raise/failwith/invalid_arg,
   assert bodies, and branches guarded by Telemetry.Gate.on () — those
   run on error paths or behind the telemetry gate, not per event.

   Messages carry the function name and root label but no position, so
   the baseline's (pass, file, message) multiset survives unrelated
   line churn in the same file. *)

open Parsetree

let max_hops = 3

let cold_raisers = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let rec mentions_gate (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Callgraph.flatten txt with
      | [ "Gate"; "on" ] | [ "Telemetry"; "Gate"; "on" ] -> true
      | _ -> false)
  | Pexp_apply (f, args) ->
      mentions_gate f || List.exists (fun (_, a) -> mentions_gate a) args
  | _ -> false

let rec pass =
  {
    Pass.name = "h1";
    severity = Finding.Warning;
    doc =
      "allocation on an audited hot path (Printf/Format, list/tuple \
       construction, string concat, per-call closures within 3 hops of a \
       hot root)";
    rationale =
      "The event loop's throughput ceiling is set by per-event \
       allocation: every cons, tuple, closure or format call inside the \
       engine dispatch, tcp rx/tx, codec or RIB fold paths is paid \
       millions of times per second. The call graph is walked from the \
       Hot_roots.hot_paths manifest to 3 hops, so a helper three calls \
       deep is budgeted like the handler itself. Remaining findings \
       live in the committed baseline with an audit trail; new ones \
       fail CI.";
    example = "let exec t e = Printf.sprintf \"%d\" e.seq |> log";
    check = (fun _ _ -> []);
    graph_check = Some check_graph;
  }

and check_graph g =
  let roots = Hot_roots.as_roots Hot_roots.hot_paths in
  let reach = Callgraph.reachable g ~roots ~max_hops () in
  List.concat_map
    (fun (r : Callgraph.reach) ->
      match Callgraph.find g ~file:r.r_file ~name:r.r_name with
      | None -> []
      | Some d when is_function d.Callgraph.d_body ->
          scan ~file:d.Callgraph.d_file ~fn:r.r_name ~via:r.r_via
            d.Callgraph.d_body
      | Some _ ->
          (* Non-function values run once at module init; the per-call
             budget does not apply. *)
          [])
    reach

and is_function (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

and scan ~file ~fn ~via body =
  let findings = ref [] in
  let hit loc what =
    findings :=
      Pass.graph_finding pass ~file ~loc
        "%s in %s (hot path via %s); hoist it, preallocate, or gate it \
         off the per-event path"
        what fn via
      :: !findings
  in
  (* A cons in the tail of a list literal was already counted with its
     head: [a; b; c] is one finding, not three. Physical identity is
     enough — we only ever compare nodes of the tree being walked. *)
  let counted_tails = ref [] in
  let expr it (e : expression) =
    match e.pexp_desc with
    | Pexp_assert _ -> ()
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when List.mem (Callgraph.last_segment txt) cold_raisers
           && List.length (Callgraph.flatten txt) = 1 ->
        ()
    | Pexp_ifthenelse (cond, _, _) when mentions_gate cond -> ()
    | Pexp_ident { txt; loc } -> (
        match Callgraph.flatten txt with
        | "Printf" :: _ | "Format" :: _ -> hit loc "Printf/Format formatting"
        | [ "^" ] | [ "String"; "concat" ] -> hit loc "string concatenation"
        | _ -> ())
    | Pexp_construct ({ txt = Longident.Lident "::"; loc }, Some arg) ->
        if not (List.memq e !counted_tails) then hit loc "list construction";
        (match arg.pexp_desc with
        | Pexp_tuple [ _; tl ] -> counted_tails := tl :: !counted_tails
        | _ -> ());
        (* Walk the pair directly: the argument tuple of :: is the
           cons cell itself, not a separate tuple allocation. *)
        (match arg.pexp_desc with
        | Pexp_tuple parts -> List.iter (it.Ast_iterator.expr it) parts
        | _ -> it.Ast_iterator.expr it arg)
    | Pexp_construct (_, Some { pexp_desc = Pexp_tuple parts; _ }) ->
        (* A multi-argument constructor: the "tuple" is the
           constructor's own argument list, flattened into its block —
           not a separate tuple allocation. *)
        List.iter (it.Ast_iterator.expr it) parts
    | Pexp_match ({ pexp_desc = Pexp_tuple parts; _ }, cases) ->
        (* [match (a, b) with ...] — the pattern-match compiler
           deforests the scrutinee tuple; no allocation happens. *)
        List.iter (it.Ast_iterator.expr it) parts;
        List.iter
          (fun (c : case) ->
            Option.iter (it.Ast_iterator.expr it) c.pc_guard;
            it.Ast_iterator.expr it c.pc_rhs)
          cases
    | Pexp_tuple _ ->
        hit e.pexp_loc "tuple construction";
        Ast_iterator.default_iterator.expr it e
    | Pexp_fun _ | Pexp_function _ ->
        hit e.pexp_loc "per-call closure";
        Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  (* The outermost curried [fun]/[function] chain is the function's own
     parameter list, not a per-call closure: walk only what executes
     when the function is applied. *)
  let rec walk_stripped (e : expression) =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) -> walk_stripped b
    | Pexp_function cases ->
        List.iter
          (fun (c : case) ->
            Option.iter (it.Ast_iterator.expr it) c.pc_guard;
            it.Ast_iterator.expr it c.pc_rhs)
          cases
    | _ -> it.Ast_iterator.expr it e
  in
  walk_stripped body;
  List.rev !findings
