(* The one blessed wall-clock read point in lib/.

   Everything the simulation computes is in simulated time; wall time
   exists only to attribute host cost (profiler samples, bench rows) and
   is never allowed to feed telemetry events, digests, or any state a
   replay could observe. Keeping the single suppressed read here — and
   testing that it stays the only d2 suppression under lib/ — is what
   makes that boundary auditable. *)

let now_s () =
  (* lint: allow d2,d5 — profiler wall clock, never feeds digests; checked runs reach it only through the observers of --out, whose digest neutrality the tests assert *)
  Unix.gettimeofday ()
