(* d1 — unordered hash-table traversal.

   [Hashtbl.iter]/[fold]/[to_seq*] visit bindings in hash order, which
   depends on insertion history; any such traversal that feeds a RIB
   digest, a snapshot, a health report, or the telemetry stream breaks
   byte-identical replay. The blessed escape hatch is [Sim.Det], the one
   module allowed to collect-then-sort. Functor instances declared in
   the same file ([module M = Hashtbl.Make (...)]) are tracked too. *)

open Parsetree

let traversals = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]
let allow_files = [ "lib/sim/det.ml" ]

let rec pass =
  {
    Pass.name = "d1";
    severity = Finding.Error;
    doc =
      "unordered Hashtbl iteration (use Sim.Det sorted traversals so \
       digests, snapshots and telemetry are replay-stable)";
    rationale =
      "Hashtbl.iter/fold visit keys in hash-bucket order, which depends \
       on insertion history and the per-process hash seed. Any digest, \
       snapshot or telemetry line fed from such a traversal differs \
       between two runs of the same descriptor, breaking replay \
       equality. Sim.Det's sorted traversals are the one blessed \
       collect-then-sort point.";
    example = "let dump tbl = Hashtbl.iter emit tbl";
    check;
    graph_check = None;
  }

and check ctx str =
  if List.exists (Pass.file_is ctx) allow_files then []
  else begin
    let tbl_modules = ref [ "Hashtbl" ] in
    let findings = ref [] in
    (* First sweep: local [module M = Hashtbl.Make (...)] instances. *)
    let collect_modules =
      {
        Ast_iterator.default_iterator with
        module_binding =
          (fun it mb ->
            (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
            | Some name, Pmod_apply ({ pmod_desc = Pmod_ident lid; _ }, _)
              when Pass.flatten lid.txt = [ "Hashtbl"; "Make" ] ->
                tbl_modules := name :: !tbl_modules
            | _ -> ());
            Ast_iterator.default_iterator.module_binding it mb);
      }
    in
    collect_modules.structure collect_modules str;
    let expr it (e : expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt = Longident.Ldot (prefix, fn); loc } ->
          let m = Pass.last prefix in
          if List.mem fn traversals && List.mem m !tbl_modules then
            findings :=
              Pass.finding ctx ~pass ~loc
                "unordered %s.%s traversal; iterate in sorted key order \
                 (Sim.Det) so replay digests cannot depend on hash-table \
                 layout"
                m fn
              :: !findings
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it str;
    !findings
  end
