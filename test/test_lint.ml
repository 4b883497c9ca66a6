(* tensor-lint's own guarantees: each pass fires on the construct it
   documents, stays quiet on the allowlisted blessed sites, honours
   reasoned suppressions and rejects reasonless ones, emits JSON that
   lib/monitor's reader can parse back, and the baseline gate flags a
   seeded violation as NEW (the CI exit-1 condition). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let lint ~file src = Lint.Driver.lint_sources [ (file, src) ]

let passes_of findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Lint.Finding.t) -> f.pass) findings)

let check_passes what expected (findings, _suppressed) =
  Alcotest.(check (list string)) what expected (passes_of findings)

(* --- d1: unordered iteration ----------------------------------------------- *)

let test_d1_positive () =
  check_passes "Hashtbl.iter in product code" [ "d1" ]
    (lint ~file:"lib/bgp/fixture.ml"
       "let f tbl = Hashtbl.iter (fun k v -> ignore k; ignore v) tbl\n");
  check_passes "Hashtbl.fold in product code" [ "d1" ]
    (lint ~file:"lib/orch/fixture.ml"
       "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n")

let test_d1_functor_instance () =
  (* Local [Hashtbl.Make] instances are picked up by the first sweep, so
     the RIB's PrefixTbl cannot dodge the pass by renaming. *)
  check_passes "Hashtbl.Make instance traversal" [ "d1" ]
    (lint ~file:"lib/bgp/fixture.ml"
       "module M = Hashtbl.Make (String)\n\
        let g tbl = M.fold (fun _ v acc -> v :: acc) tbl []\n")

let test_d1_allowlisted () =
  let findings, suppressed =
    lint ~file:"lib/sim/det.ml"
      "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"
  in
  checki "Sim.Det is the blessed traversal point" 0 (List.length findings);
  checki "allowlist is not a suppression" 0 suppressed

let test_d1_suppressed () =
  let findings, suppressed =
    lint ~file:"lib/bgp/fixture.ml"
      "(* lint: allow d1 -- collect-then-sort: sorted on the next line *)\n\
       let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"
  in
  checki "reasoned suppression silences d1" 0 (List.length findings);
  checki "one suppression honoured" 1 suppressed

let test_suppression_without_reason_rejected () =
  let findings, suppressed =
    lint ~file:"lib/bgp/fixture.ml"
      "(* lint: allow d1 *)\n\
       let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"
  in
  checki "nothing suppressed" 0 suppressed;
  check_passes "finding survives and the directive is flagged"
    [ "d1"; Lint.Suppress.meta_pass ]
    (findings, suppressed)

let test_suppression_unknown_pass_rejected () =
  check_passes "unknown pass name is flagged" [ Lint.Suppress.meta_pass ]
    (lint ~file:"lib/bgp/fixture.ml"
       "(* lint: allow zz -- no such pass *)\nlet x = 1\n")

let test_suppression_unused_flagged () =
  check_passes "unused directive is flagged" [ Lint.Suppress.meta_pass ]
    (lint ~file:"lib/bgp/fixture.ml"
       "(* lint: allow d1 -- nothing to suppress here *)\nlet x = 1\n")

(* --- d2: ambient nondeterminism -------------------------------------------- *)

let test_d2_positive () =
  check_passes "Unix.gettimeofday" [ "d2" ]
    (lint ~file:"lib/tcp/fixture.ml" "let now () = Unix.gettimeofday ()\n");
  check_passes "Random outside the engine RNG" [ "d2" ]
    (lint ~file:"lib/bgp/fixture.ml" "let r () = Random.int 5\n");
  check_passes "Marshal" [ "d2" ]
    (lint ~file:"lib/store/fixture.ml"
       "let s v = Marshal.to_string v []\n")

let test_d2_rng_allowlisted () =
  check_passes "lib/sim/rng.ml may use Random" []
    (lint ~file:"lib/sim/rng.ml" "let r () = Random.int 5\n")

(* --- d3: float equality ---------------------------------------------------- *)

let test_d3_positive () =
  check_passes "comparison against a float literal" [ "d3" ]
    (lint ~file:"lib/sim/fixture.ml" "let is_zero x = x = 0.0\n");
  check_passes "comparison of a float expression" [ "d3" ]
    (lint ~file:"lib/sim/fixture.ml" "let f a b c = (a +. b) = c\n")

let test_d3_ints_quiet () =
  check_passes "integer equality is fine" []
    (lint ~file:"lib/sim/fixture.ml" "let eq (a : int) b = a = b\n")

(* --- d4: top-level mutable state in domain-shared libraries ----------------- *)

let test_d4_positive () =
  check_passes "top-level ref" [ "d4" ]
    (lint ~file:"lib/bgp/fixture.ml" "let counter = ref 0\n");
  check_passes "top-level Hashtbl" [ "d4" ]
    (lint ~file:"lib/telemetry/fixture.ml" "let tbl = Hashtbl.create 8\n");
  check_passes "top-level functor-instance table" [ "d4" ]
    (lint ~file:"lib/bgp/fixture.ml"
       "module M = Hashtbl.Make (String)\nlet tbl = M.create 8\n");
  check_passes "ref inside a top-level record" [ "d4" ]
    (lint ~file:"lib/sim/fixture.ml"
       "type s = { cell : int ref }\nlet st = { cell = ref 0 }\n");
  check_passes "top-level binding inside a nested module" [ "d4" ]
    (lint ~file:"lib/store/fixture.ml"
       "module Inner = struct let q = Queue.create () end\n")

let test_d4_function_local_quiet () =
  check_passes "state built per call is per-run" []
    (lint ~file:"lib/bgp/fixture.ml"
       "let f () = let tbl = Hashtbl.create 8 in Hashtbl.length tbl\n")

let test_d4_dls_key_quiet () =
  (* The sanctioned shape: the constructor sits under the DLS init
     lambda, so each domain mints its own copy. *)
  check_passes "Domain.DLS.new_key init is per-domain" []
    (lint ~file:"lib/telemetry/fixture.ml"
       "let key = Domain.DLS.new_key (fun () -> ref 0)\n\
        let get () = Domain.DLS.get key\n")

let test_d4_out_of_scope_quiet () =
  check_passes "bin/ executables are single-domain entry points" []
    (lint ~file:"bin/fixture.ml" "let verbose = ref false\n");
  check_passes "the linter itself never runs inside a campaign domain" []
    (lint ~file:"lib/lint/fixture.ml" "let cache = Hashtbl.create 8\n")

let test_d4_suppressed () =
  let findings, suppressed =
    lint ~file:"lib/monitor/fixture.ml"
      "(* lint: allow d4 -- flags minted once at init, read-only after *)\n\
       let registry : int list ref = ref []\n"
  in
  checki "reasoned suppression silences d4" 0 (List.length findings);
  checki "one suppression honoured" 1 suppressed

(* --- p1: wildcard FSM arms -------------------------------------------------- *)

let fsm_fixture arm =
  "type t = Idle | Connecting | Open_sent | Open_confirm | Established | \
   Down\n\
   let f st = match st with Established -> 1 | " ^ arm ^ " -> 0\n"

let test_p1_positive () =
  check_passes "wildcard over BGP session states" [ "p1" ]
    (lint ~file:"lib/bgp/fixture.ml" (fsm_fixture "_"));
  check_passes "binder over BGP session states" [ "p1" ]
    (lint ~file:"lib/bgp/fixture.ml" (fsm_fixture "other"))

let test_p1_explicit_quiet () =
  check_passes "explicit arms are fine" []
    (lint ~file:"lib/bgp/fixture.ml"
       (fsm_fixture "Idle | Connecting | Open_sent | Open_confirm | Down"))

let test_p1_outside_owning_dir_quiet () =
  (* Same constructor names in a non-protocol directory: not our FSM. *)
  check_passes "manifest is scoped to the owning directories" []
    (lint ~file:"lib/workload/fixture.ml" (fsm_fixture "_"))

(* --- p2: panic budget -------------------------------------------------------- *)

let test_p2_positive () =
  check_passes "failwith in a protocol hot path" [ "p2" ]
    (lint ~file:"lib/bgp/fixture.ml" "let f () = failwith \"boom\"\n");
  check_passes "assert false in a protocol hot path" [ "p2" ]
    (lint ~file:"lib/tcp/fixture.ml" "let f () = assert false\n");
  check_passes "Obj.magic in a protocol hot path" [ "p2" ]
    (lint ~file:"lib/bfd/fixture.ml" "let f x = Obj.magic x\n")

let test_p2_cold_dir_quiet () =
  check_passes "panics outside hot paths are not budgeted" []
    (lint ~file:"lib/workload/fixture.ml" "let f () = failwith \"boom\"\n")

let test_p2_suppressed () =
  let findings, suppressed =
    lint ~file:"lib/bgp/fixture.ml"
      "(* lint: allow p2 -- precondition: caller guarantees a frame *)\n\
       let f () = failwith \"boom\"\n"
  in
  checki "reasoned suppression silences p2" 0 (List.length findings);
  checki "one suppression honoured" 1 suppressed

(* --- driver over a tree, JSON round-trip, baseline gate --------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_tree f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tensor-lint-test-%d" (Unix.getpid ()))
  in
  rm_rf root;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let write rel content =
        let path = Filename.concat root rel in
        mkdir_p (Filename.dirname path);
        let oc = open_out_bin path in
        output_string oc content;
        close_out oc;
        path
      in
      f root write)

let json_mem name j =
  match Monitor.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "JSON report lacks %S" name

let test_json_roundtrips_through_monitor () =
  with_temp_tree (fun root write ->
      let _ =
        write "lib/bgp/dirty.ml"
          "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n"
      in
      let _ = write "lib/bgp/clean.ml" "let x = 1\n" in
      let report = Lint.Driver.run ~readers:[] ~paths:[ root ] () in
      let json = Lint.Driver.to_json report ~new_findings:report.findings in
      match Monitor.Json.parse json with
      | Error e -> Alcotest.failf "Monitor.Json rejected the report: %s" e
      | Ok j ->
          let summary = json_mem "summary" j in
          let geti name =
            match Monitor.Json.to_int (json_mem name summary) with
            | Some i -> i
            | None -> Alcotest.failf "summary.%s is not an int" name
          in
          checki "summary.files" 2 (geti "files");
          checki "summary.findings" 1 (geti "findings");
          checki "summary.new" 1 (geti "new");
          let findings =
            match Monitor.Json.to_list (json_mem "findings" j) with
            | Some l -> l
            | None -> Alcotest.fail "findings is not a list"
          in
          checki "one finding serialized" 1 (List.length findings);
          let f = List.hd findings in
          let gets name =
            match Monitor.Json.to_str (json_mem name f) with
            | Some s -> s
            | None -> Alcotest.failf "finding.%s is not a string" name
          in
          checks "finding.pass" "d1" (gets "pass");
          checkb "finding.file points at the fixture" true
            (Filename.basename (gets "file") = "dirty.ml"))

let test_baseline_gates_new_findings () =
  with_temp_tree (fun root write ->
      let _ =
        write "lib/bgp/old.ml" "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n"
      in
      let report = Lint.Driver.run ~readers:[] ~paths:[ root ] () in
      checki "one pre-existing finding" 1 (List.length report.findings);
      let baseline_file = write "baseline.json" "" in
      let oc = open_out_bin baseline_file in
      output_string oc
        (Lint.Driver.to_json report ~new_findings:report.findings);
      close_out oc;
      let entries =
        match Lint.Baseline.load baseline_file with
        | Ok e -> e
        | Error e -> Alcotest.failf "baseline did not load: %s" e
      in
      (* Unchanged tree: the gate is green (exit 0). *)
      checki "baselined finding is not NEW" 0
        (List.length (Lint.Baseline.diff entries report.findings));
      (* Seed a violation: the gate must go red (exit 1 in the CI job). *)
      let _ =
        write "lib/tcp/seeded.ml" "let now () = Unix.gettimeofday ()\n"
      in
      let report' = Lint.Driver.run ~readers:[] ~paths:[ root ] () in
      checki "two findings total" 2 (List.length report'.findings);
      let fresh = Lint.Baseline.diff entries report'.findings in
      checki "exactly the seeded violation is NEW" 1 (List.length fresh);
      checks "and it is the d2 one" "d2" (List.hd fresh).Lint.Finding.pass;
      checki "no stale entry while the finding stands" 0
        (List.length (Lint.Baseline.stale entries report'.findings));
      (* Fix the baselined finding: its entry is now stale (the ratchet). *)
      let _ = write "lib/bgp/old.ml" "let f () = ()\n" in
      let report'' = Lint.Driver.run ~readers:[] ~paths:[ root ] () in
      match Lint.Baseline.stale entries report''.findings with
      | [ e ] -> checks "the fixed finding's entry is stale" "d1" e.Lint.Baseline.b_pass
      | l -> Alcotest.failf "expected one stale entry, got %d" (List.length l))

(* --- call-graph resolver ---------------------------------------------------- *)

let edges g ~file ~name =
  List.map
    (fun (f, n) -> f ^ ":" ^ n)
    (Lint.Callgraph.callees g ~file ~name)

let test_cg_cross_module_edge () =
  let g =
    Lint.Callgraph.build_sources
      [
        ("lib/foo/alpha.ml", "let helper x = x + 1\n");
        ("lib/foo/beta.ml", "let caller x = Alpha.helper x\n");
      ]
  in
  Alcotest.(check (list string))
    "module-qualified call resolves to the repo file"
    [ "lib/foo/alpha.ml:helper" ]
    (edges g ~file:"lib/foo/beta.ml" ~name:"caller")

let test_cg_locally_opened_module () =
  let g =
    Lint.Callgraph.build_sources
      [
        ("lib/foo/alpha.ml", "let helper x = x + 1\n");
        ("lib/foo/beta.ml", "open Alpha\nlet caller x = helper x\n");
      ]
  in
  Alcotest.(check (list string))
    "bare name resolves through the file's open"
    [ "lib/foo/alpha.ml:helper" ]
    (edges g ~file:"lib/foo/beta.ml" ~name:"caller")

let test_cg_shadowed_name () =
  (* A let-bound local shadows both the opened module's function and a
     same-file toplevel: neither may receive an edge. *)
  let g =
    Lint.Callgraph.build_sources
      [
        ("lib/foo/alpha.ml", "let helper x = x + 1\n");
        ( "lib/foo/beta.ml",
          "open Alpha\n\
           let caller x = let helper y = y * 2 in helper x\n" );
        ( "lib/foo/gamma.ml",
          "let helper x = x + 1\n\
           let caller x = let helper y = y * 2 in helper x\n" );
      ]
  in
  Alcotest.(check (list string))
    "local binding shadows the open" []
    (edges g ~file:"lib/foo/beta.ml" ~name:"caller");
  Alcotest.(check (list string))
    "local binding shadows the same-file toplevel" []
    (edges g ~file:"lib/foo/gamma.ml" ~name:"caller")

let test_cg_unresolved_external () =
  (* Stdlib and other non-repo modules never produce edges: the graph
     is closed over the scanned file set. *)
  let g =
    Lint.Callgraph.build_sources
      [
        ( "lib/foo/beta.ml",
          "let caller xs = List.map succ (Ext.transform xs)\n" );
      ]
  in
  Alcotest.(check (list string))
    "external calls resolve to nothing" []
    (edges g ~file:"lib/foo/beta.ml" ~name:"caller")

let test_cg_reachability_hops () =
  let g =
    Lint.Callgraph.build_sources
      [
        ( "lib/foo/chain.ml",
          "let f3 x = x\n\
           let f2 x = f3 x\n\
           let f1 x = f2 x\n\
           let root x = f1 x\n" );
      ]
  in
  let names hops =
    Lint.Callgraph.reachable g
      ~roots:[ ("lib/foo/chain.ml", "root", "test root") ]
      ?max_hops:hops ()
    |> List.map (fun (r : Lint.Callgraph.reach) -> r.r_name)
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "unbounded walk reaches the whole chain"
    [ "f1"; "f2"; "f3"; "root" ] (names None);
  Alcotest.(check (list string))
    "2-hop walk stops at f2"
    [ "f1"; "f2"; "root" ] (names (Some 2))

(* --- h1: hot-path allocation budget ------------------------------------------ *)

(* Fixture files reuse real manifest paths (Hot_roots.hot_paths names
   lib/sim/engine.ml:exec etc.), so [lint_sources] exercises the
   interprocedural walk with a single in-memory file. *)

let test_h1_positive_direct () =
  check_passes "Printf inside a hot root" [ "h1" ]
    (lint ~file:"lib/sim/engine.ml"
       "let exec t e = ignore (Printf.sprintf \"%d\" e); t\n")

let test_h1_positive_within_hops () =
  (* helper is 1 hop from the root: budgeted like the root itself. *)
  check_passes "allocation one hop below a hot root" [ "h1" ]
    (lint ~file:"lib/sim/engine.ml"
       "let helper x = [ x; x + 1 ]\nlet exec t e = ignore (helper e); t\n")

let test_h1_beyond_hop_budget_quiet () =
  (* f4 sits 4 hops from the root — outside max_hops = 3. *)
  check_passes "allocation beyond the hop budget" []
    (lint ~file:"lib/sim/engine.ml"
       "let f4 x = [ x ]\n\
        let f3 x = f4 x\n\
        let f2 x = f3 x\n\
        let f1 x = f2 x\n\
        let exec t e = ignore (f1 e); t\n")

let test_h1_cold_contexts_quiet () =
  (* Allocation under raise/failwith arguments or an assert is the
     error path, not the per-event path; same for Gate-guarded code. *)
  check_passes "error-path and gated allocations" []
    (lint ~file:"lib/sim/engine.ml"
       "let exec t e =\n\
       \  if e < 0 then\n\
       \    raise (Invalid_argument (String.concat \"\" [ \"bad \"; \"event\" ]));\n\
       \  assert (List.length [ e ] = 1);\n\
       \  (if Telemetry.Gate.on () then ignore (e, t));\n\
       \  t\n")

let test_h1_non_function_def_quiet () =
  (* A toplevel value referenced by a root runs once at module init;
     the per-call budget does not apply. *)
  check_passes "module-init allocation" []
    (lint ~file:"lib/sim/engine.ml"
       "let banner = Printf.sprintf \"engine %d\" 1\n\
        let exec t _ = ignore banner; t\n")

let test_h1_constructor_and_match_tuples_quiet () =
  (* Multi-argument constructors flatten their arguments into the block
     and [match (a, b) with] deforests the scrutinee: no tuple alloc. *)
  check_passes "constructor args and match scrutinees" []
    (lint ~file:"lib/sim/engine.ml"
       "type r = Pair of int * int\n\
        let exec t e = (match (e, t) with 0, 0 -> Pair (e, t) | a, b -> \
        Pair (a, b))\n")

let test_h1_out_of_scope_quiet () =
  check_passes "same code off the manifest is unbudgeted" []
    (lint ~file:"lib/workload/fixture.ml"
       "let exec t e = ignore (Printf.sprintf \"%d\" e); t\n")

let test_h1_suppressed () =
  let findings, suppressed =
    lint ~file:"lib/sim/engine.ml"
      "let exec t e =\n\
      \  (* lint: allow h1 -- one-shot banner, exec runs once in this test *)\n\
      \  ignore (Printf.sprintf \"%d\" e);\n\
      \  t\n"
  in
  checki "reasoned suppression silences h1" 0 (List.length findings);
  checki "one suppression honoured" 1 suppressed

let test_h1_message_is_line_stable () =
  (* Baseline matching is (pass, file, message): the message must not
     embed positions, or every unrelated edit above the site would
     invalidate the baseline. *)
  let findings, _ =
    lint ~file:"lib/sim/engine.ml"
      "let exec t e = ignore (Printf.sprintf \"%d\" e); t\n"
  in
  let f = List.hd findings in
  checkb "message names the function" true
    (let msg = f.Lint.Finding.message in
     let contains sub =
       let n = String.length sub and m = String.length msg in
       let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
       at 0
     in
     contains "exec" && contains "engine dispatch");
  checkb "message embeds no positions (digits)" false
    (String.exists
       (fun c -> c >= '0' && c <= '9')
       f.Lint.Finding.message)

(* --- d5: digest purity -------------------------------------------------------- *)

let test_d5_positive_direct () =
  check_passes "wall clock inside a digest root" [ "d2"; "d5" ]
    (lint ~file:"lib/bgp/rib.ml"
       "let digest t = int_of_float (Unix.gettimeofday ()) + t\n")

let test_d5_positive_transitive () =
  (* The walk is unbounded: entropy three calls deep still taints the
     digest. d2 also fires on the site itself, file-locally. *)
  check_passes "Random three calls below the digest" [ "d2"; "d5" ]
    (lint ~file:"lib/bgp/rib.ml"
       "let salt () = Random.bits ()\n\
        let mix x = salt () + x\n\
        let fold t = mix t\n\
        let digest t = fold t\n")

let test_d5_out_of_scope_quiet () =
  (* Same shape, but the file hosts no digest-feeding root: only the
     per-file d2 pass fires. *)
  check_passes "entropy outside the digest graph" [ "d2" ]
    (lint ~file:"lib/workload/fixture.ml"
       "let salt () = Random.bits ()\nlet digest t = salt () + t\n")

let test_d5_suppression_does_not_launder () =
  (* A d2 suppression on the offending line is exactly the laundering
     d5 exists to catch: the error must survive it. *)
  let findings, suppressed =
    lint ~file:"lib/bgp/rib.ml"
      "let salt () =\n\
      \  (* lint: allow d2 -- locally argued, but still digest-reachable *)\n\
      \  Random.bits ()\n\
       let digest t = salt () + t\n"
  in
  checki "the d2 suppression is honoured" 1 suppressed;
  check_passes "d5 still reports the reachable entropy" [ "d5" ]
    (findings, suppressed)

(* --- p3: interprocedural panic budget ----------------------------------------- *)

let test_p3_partial_stdlib_in_root_file () =
  (* engine.ml is not under p2's directories, so p3 owns both the
     partial stdlib call and any panic primitive here. *)
  check_passes "List.hd reachable from engine dispatch" [ "p3" ]
    (lint ~file:"lib/sim/engine.ml" "let exec t es = List.hd es + t\n")

let test_p3_panic_outside_p2_dirs () =
  check_passes "failwith in a shared helper outside p2's horizon" [ "p3" ]
    (lint ~file:"lib/sim/engine.ml"
       "let helper x = if x < 0 then failwith \"neg\" else x\n\
        let exec t e = helper e + t\n")

let test_p3_no_double_report_with_p2 () =
  (* tcp.ml is p2 territory: the failwith is p2's finding alone, but a
     partial stdlib function is still p3's. *)
  check_passes "panic primitive reported once, by p2" [ "p2" ]
    (lint ~file:"lib/tcp/tcp.ml"
       "let conn_rx c s = if s < 0 then failwith \"bad\" else c\n");
  check_passes "partial stdlib is p3's even inside p2 dirs" [ "p3" ]
    (lint ~file:"lib/tcp/tcp.ml" "let conn_rx c ss = List.hd ss + c\n")

let test_p3_out_of_scope_quiet () =
  check_passes "partial call with no hot root in the graph" []
    (lint ~file:"lib/workload/fixture.ml" "let pick ss = List.hd ss\n")

let test_p3_suppressed () =
  let findings, suppressed =
    lint ~file:"lib/sim/engine.ml"
      "let exec t es =\n\
      \  (* lint: allow p3 -- es statically non-empty: built by run() *)\n\
      \  List.hd es + t\n"
  in
  checki "reasoned suppression silences p3" 0 (List.length findings);
  checki "one suppression honoured" 1 suppressed

(* --- i1: every export has a reader --------------------------------------------- *)

(* One interface, [Alpha], exporting a value and a submodule-signature
   value. Each row is one way of reading them, linted together with
   the interface: the expected list names what i1 reports, as
   "<export> <kind>". Its own module's reads never count: [Sub.get]
   calls [helper] inside alpha.ml. *)
let alpha_intf = "val helper : int -> int\nmodule Sub : sig val get : int -> int end\n"
let alpha_impl = "let helper x = x + 1\nmodule Sub = struct let get x = helper x end\n"

let i1_report (findings, _) =
  List.filter_map
    (fun (f : Lint.Finding.t) ->
      let msg = f.message in
      let name = List.hd (String.split_on_char ' ' msg) in
      let has sub =
        let n = String.length sub and m = String.length msg in
        let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
        at 0
      in
      if f.pass <> "i1" then None
      else if has "no other module" then Some (name ^ " unread")
      else if has "only by tests" then Some (name ^ " tests only")
      else if has "without a doc comment" then Some (name ^ " undocumented")
      else Some (name ^ " misplaced"))
    findings

let test_i1_reader_idioms () =
  let both = [ "Alpha.helper"; "Alpha.Sub.get" ] in
  let kind k = List.map (fun n -> n ^ " " ^ k) both in
  let heading = "(** {1 Test-only} *)\n\n" in
  (* Under the heading, each val says why it stays. *)
  let test_only =
    heading
    ^ "val helper : int -> int\n(** Kept: why. *)\n\n\
       module Sub : sig\n  val get : int -> int\n  (** Inspection: why. *)\nend\n"
  in
  let uses = "let () = ignore (Alpha.helper (Alpha.Sub.get 1))\n" in
  let lib src = [ ("lib/bar/beta.ml", src) ] in
  (* (idiom, interface, linted readers, reader-only sources, expected) *)
  let cases =
    [
      ( "qualified path", alpha_intf,
        lib "let f x = Alpha.helper (Alpha.Sub.get x)\n", [], [] );
      ( "module alias", alpha_intf,
        lib "module A = Foo.Alpha\nlet f x = A.helper (A.Sub.get x)\n", [], [] );
      ( "file-level open", alpha_intf,
        lib "open Alpha\nlet f x = helper (Sub.get x)\n", [], [] );
      ( "let open", alpha_intf,
        lib "let f x = let open Alpha in helper (Sub.get x)\n", [], [] );
      ("M.(..)", alpha_intf, lib "let f x = Alpha.(helper (Sub.get x))\n", [], []);
      ("include", alpha_intf, lib "include Alpha\n", [], []);
      ("top-level let ()", alpha_intf, lib uses, [], []);
      ("reader-only source", alpha_intf, [], [ ("perfsuite/bench.ml", uses) ], []);
      ("seeded unread export", alpha_intf, lib "let f x = x\n", [], kind "unread");
      ( "test-only reader", alpha_intf, [], [ ("test/test_alpha.ml", uses) ],
        kind "tests only" );
      ("test-only heading", test_only, [], [ ("test/test_alpha.ml", uses) ], []);
      ("test-only heading, product reader", test_only, lib uses, [], kind "misplaced");
      ( "test-only heading, no reason given", heading ^ alpha_intf, [],
        [ ("test/test_alpha.ml", uses) ], kind "undocumented" );
      ( "suppressed",
        "(* lint: allow i1 -- kept for a reason *)\n" ^ alpha_intf,
        lib "let f = Alpha.Sub.get\n", [], [] );
      ( "same-named module read through its library", alpha_intf,
        [
          ("lib/bar/alpha.mli", alpha_intf);
          ("lib/bar/alpha.ml", alpha_impl);
          ("lib/baz/beta.ml", "let f x = Bar.Alpha.helper (Bar.Alpha.Sub.get x)\n");
        ],
        [], kind "unread" );
    ]
  in
  List.iter
    (fun (idiom, intf, sources, readers, expected) ->
      Alcotest.(check (list string))
        idiom expected
        (i1_report
           (Lint.Driver.lint_sources ~readers
              ([ ("lib/foo/alpha.mli", intf); ("lib/foo/alpha.ml", alpha_impl) ]
              @ sources))))
    cases

(* --- parallel driver ---------------------------------------------------------- *)

let test_driver_jobs_equivalent () =
  with_temp_tree (fun root write ->
      let _ =
        write "lib/bgp/dirty.ml"
          "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n"
      in
      let _ = write "lib/tcp/seeded.ml" "let now () = Unix.gettimeofday ()\n" in
      let _ = write "lib/bgp/clean.ml" "let x = 1\nlet y = 2\n" in
      (* i1 across the parallel scan: [x] is unread, [y] read only by
         a reader-only source. *)
      let _ = write "lib/bgp/clean.mli" "val x : int\nval y : int\n" in
      let _ = write "readers/use.ml" "let () = ignore Clean.y\n" in
      let readers = [ Filename.concat root "readers" ] in
      let r1 = Lint.Driver.run ~jobs:1 ~readers ~paths:[ Filename.concat root "lib" ] () in
      let r4 = Lint.Driver.run ~jobs:4 ~readers ~paths:[ Filename.concat root "lib" ] () in
      checki "the unread export is the one i1 finding" 1
        (List.length
           (List.filter (fun (f : Lint.Finding.t) -> f.pass = "i1") r1.findings));
      Alcotest.(check (list string))
        "findings identical across --jobs"
        (List.map Lint.Finding.to_string r1.findings)
        (List.map Lint.Finding.to_string r4.findings);
      checki "suppression count identical" r1.suppressed r4.suppressed;
      checks "whole report renders identically"
        (Lint.Driver.to_json r1 ~new_findings:r1.findings)
        (Lint.Driver.to_json r4 ~new_findings:r4.findings))

(* --- repo gate ---------------------------------------------------------------- *)

let test_zero_finding_repo_baseline () =
  (* The committed contract since the call-graph passes landed: the
     repo carries ZERO error-severity findings (d5, p3, suppress,
     parse), and every warning is absorbed by the committed
     lint-baseline.json — so anything NEW fails CI. Under [dune
     runtest] the cwd is [_build/default/test]; under [dune exec
     test/test_lint.exe] it is the workspace root. *)
  let root = if Sys.file_exists "lib" then "." else ".." in
  let under = List.map (Filename.concat root) in
  let report =
    Lint.Driver.run
      ~readers:(under Lint.Driver.reader_paths)
      ~paths:(under Lint.Driver.lint_paths) ()
  in
  Alcotest.(check (list string))
    "no error-severity findings in the repo" []
    (List.filter_map
       (fun (f : Lint.Finding.t) ->
         match f.severity with
         | Lint.Finding.Error -> Some (Lint.Finding.to_string f)
         | Lint.Finding.Warning -> None)
       report.findings);
  let entries =
    match Lint.Baseline.load (Filename.concat root "lint-baseline.json") with
    | Ok e -> e
    | Error e -> Alcotest.failf "committed baseline did not load: %s" e
  in
  (* The committed baseline stores repo-relative paths; strip the
     test-cwd prefix so the multiset match lines up. *)
  let prefix = root ^ "/" in
  let relocated =
    List.map
      (fun (f : Lint.Finding.t) ->
        if String.starts_with ~prefix f.file then
          {
            f with
            Lint.Finding.file =
              String.sub f.file (String.length prefix)
                (String.length f.file - String.length prefix);
          }
        else f)
      report.findings
  in
  Alcotest.(check (list string))
    "every repo finding is absorbed by the committed baseline" []
    (List.map Lint.Finding.to_string (Lint.Baseline.diff entries relocated));
  (* The ratchet: a warning that went away takes its entry with it. *)
  Alcotest.(check (list string))
    "every baseline entry absorbs a repo finding" []
    (List.map Lint.Baseline.entry_to_string
       (Lint.Baseline.stale entries relocated))

let test_single_blessed_d2_suppression () =
  (* The profiler wall clock (Prof.Clock) is the one place in lib/
     allowed to read host time; every other wall-clock read must go
     through it. A second d2 suppression appearing anywhere in lib/
     means someone opened a new ambient-time hole — argue it here
     first. *)
  let root = if Sys.file_exists "lib" then "." else ".." in
  let base_dir f = Filename.basename (Filename.dirname f) in
  let read f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let rec walk dir acc =
    Array.fold_left
      (fun acc name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk p acc
        else if Filename.check_suffix name ".ml" then p :: acc
        else acc)
      acc (Sys.readdir dir)
  in
  let sources = walk (Filename.concat root "lib") [] in
  (* The causal tracer (lib/trace) is observation-only and must stay
     inside the determinism budget: assert its sources are actually in
     the scanned set (a silent walk miss would void the check below),
     then that it added no d2 suppression. *)
  List.iter
    (fun f ->
      checkb
        (Printf.sprintf "lib/trace/%s is scanned" f)
        true
        (List.exists
           (fun p -> Filename.basename p = f && base_dir p = "trace")
           sources))
    [ "recorder.ml"; "critical.ml"; "perfetto.ml"; "series.ml" ];
  let d2_files =
    sources
    |> List.filter (fun f ->
           List.exists
             (fun (d : Lint.Suppress.directive) -> List.mem "d2" d.passes)
             (Lint.Suppress.scan (read f)))
    |> List.map (fun f -> Filename.concat (base_dir f) (Filename.basename f))
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "Prof.Clock is the only d2-suppressed site in lib/"
    [ "prof/clock.ml" ] d2_files

let () =
  Alcotest.run "lint"
    [
      ( "d1",
        [
          Alcotest.test_case "positive" `Quick test_d1_positive;
          Alcotest.test_case "functor instance" `Quick test_d1_functor_instance;
          Alcotest.test_case "allowlisted" `Quick test_d1_allowlisted;
          Alcotest.test_case "suppressed" `Quick test_d1_suppressed;
        ] );
      ( "suppress",
        [
          Alcotest.test_case "reasonless rejected" `Quick
            test_suppression_without_reason_rejected;
          Alcotest.test_case "unknown pass rejected" `Quick
            test_suppression_unknown_pass_rejected;
          Alcotest.test_case "unused flagged" `Quick
            test_suppression_unused_flagged;
          Alcotest.test_case "single blessed d2 suppression" `Quick
            test_single_blessed_d2_suppression;
        ] );
      ( "d2",
        [
          Alcotest.test_case "positive" `Quick test_d2_positive;
          Alcotest.test_case "rng allowlisted" `Quick test_d2_rng_allowlisted;
        ] );
      ( "d3",
        [
          Alcotest.test_case "positive" `Quick test_d3_positive;
          Alcotest.test_case "ints quiet" `Quick test_d3_ints_quiet;
        ] );
      ( "d4",
        [
          Alcotest.test_case "positive" `Quick test_d4_positive;
          Alcotest.test_case "function-local quiet" `Quick
            test_d4_function_local_quiet;
          Alcotest.test_case "DLS key quiet" `Quick test_d4_dls_key_quiet;
          Alcotest.test_case "out of scope quiet" `Quick
            test_d4_out_of_scope_quiet;
          Alcotest.test_case "suppressed" `Quick test_d4_suppressed;
        ] );
      ( "p1",
        [
          Alcotest.test_case "positive" `Quick test_p1_positive;
          Alcotest.test_case "explicit quiet" `Quick test_p1_explicit_quiet;
          Alcotest.test_case "outside owning dir quiet" `Quick
            test_p1_outside_owning_dir_quiet;
        ] );
      ( "p2",
        [
          Alcotest.test_case "positive" `Quick test_p2_positive;
          Alcotest.test_case "cold dir quiet" `Quick test_p2_cold_dir_quiet;
          Alcotest.test_case "suppressed" `Quick test_p2_suppressed;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "cross-module edge" `Quick
            test_cg_cross_module_edge;
          Alcotest.test_case "locally-opened module" `Quick
            test_cg_locally_opened_module;
          Alcotest.test_case "shadowed name" `Quick test_cg_shadowed_name;
          Alcotest.test_case "unresolved external" `Quick
            test_cg_unresolved_external;
          Alcotest.test_case "reachability hop budget" `Quick
            test_cg_reachability_hops;
        ] );
      ( "h1",
        [
          Alcotest.test_case "positive: direct" `Quick test_h1_positive_direct;
          Alcotest.test_case "positive: within hops" `Quick
            test_h1_positive_within_hops;
          Alcotest.test_case "beyond hop budget quiet" `Quick
            test_h1_beyond_hop_budget_quiet;
          Alcotest.test_case "cold contexts quiet" `Quick
            test_h1_cold_contexts_quiet;
          Alcotest.test_case "non-function def quiet" `Quick
            test_h1_non_function_def_quiet;
          Alcotest.test_case "constructor/match tuples quiet" `Quick
            test_h1_constructor_and_match_tuples_quiet;
          Alcotest.test_case "out of scope quiet" `Quick
            test_h1_out_of_scope_quiet;
          Alcotest.test_case "suppressed" `Quick test_h1_suppressed;
          Alcotest.test_case "message is line-stable" `Quick
            test_h1_message_is_line_stable;
        ] );
      ( "d5",
        [
          Alcotest.test_case "positive: direct" `Quick test_d5_positive_direct;
          Alcotest.test_case "positive: transitive" `Quick
            test_d5_positive_transitive;
          Alcotest.test_case "out of scope quiet" `Quick
            test_d5_out_of_scope_quiet;
          Alcotest.test_case "d2 suppression does not launder" `Quick
            test_d5_suppression_does_not_launder;
        ] );
      ( "i1",
        [ Alcotest.test_case "reader idioms" `Quick test_i1_reader_idioms ] );
      ( "p3",
        [
          Alcotest.test_case "partial stdlib in root file" `Quick
            test_p3_partial_stdlib_in_root_file;
          Alcotest.test_case "panic outside p2 dirs" `Quick
            test_p3_panic_outside_p2_dirs;
          Alcotest.test_case "no double report with p2" `Quick
            test_p3_no_double_report_with_p2;
          Alcotest.test_case "out of scope quiet" `Quick
            test_p3_out_of_scope_quiet;
          Alcotest.test_case "suppressed" `Quick test_p3_suppressed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "json roundtrips through Monitor.Json" `Quick
            test_json_roundtrips_through_monitor;
          Alcotest.test_case "baseline gates a seeded violation" `Quick
            test_baseline_gates_new_findings;
          Alcotest.test_case "jobs-equivalent reports" `Quick
            test_driver_jobs_equivalent;
          Alcotest.test_case "repo lints clean" `Quick
            test_zero_finding_repo_baseline;
        ] );
    ]
