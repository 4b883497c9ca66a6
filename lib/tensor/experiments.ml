(* Every paper experiment's parameters, written once. The full ranges
   are each driver's defaults; only the quick ranges are spelled out
   here. These are the ranges behind EXPERIMENTS.md and the committed
   BENCH_*.json snapshots. *)

type t = { id : string; engine : bool; run : quick:bool -> unit }

let quick_only ~quick v = if quick then Some v else None

(* Fixed-size experiments: quick and full are the same run. *)
let fixed f ~quick:_ = f ()

let fig5a ~quick =
  Exp_fig5a.print
    (if quick then
       Exp_fig5a.run ~packet_sizes:[ 100; 500; 2000 ]
         ~delays_ms:[ 0.; 2.; 5.; 20.; 50. ]
         ~measure_span:(Sim.Time.ms 200) ()
     else Exp_fig5a.run ())

let fig5b ~quick =
  Exp_fig5b.print
    (Exp_fig5b.run ?counts:(quick_only ~quick [ 1; 10; 70; 1_000; 10_000 ]) ())

let fig6_counts ~quick = quick_only ~quick [ 100; 10_000; 100_000 ]

let fig6a ~quick =
  Exp_fig6.print_receive (Exp_fig6.run_receive ?counts:(fig6_counts ~quick) ())

let fig6b ~quick =
  Exp_fig6.print_send (Exp_fig6.run_send ?counts:(fig6_counts ~quick) ())

let fig6c ~quick =
  Exp_fig6.print_multi_peer
    (Exp_fig6.run_multi_peer
       ?peer_counts:(quick_only ~quick [ 50; 200; 700 ])
       ())

let multias ~quick =
  Exp_parallel.print (Exp_parallel.run ?ases:(quick_only ~quick 10) ())

let scale ~quick =
  Exp_scale.print
    (if quick then Exp_scale.run ~hosts:5 ~services:20 ~routes_per_service:200
     else Exp_scale.run ~hosts:40 ~services:400 ~routes_per_service:100)

let ablations () =
  Exp_ablations.print_preheat (Exp_ablations.run_preheat ());
  Exp_ablations.print_replication_modes (Exp_ablations.run_replication_modes ());
  Exp_ablations.print_hook_overhead (Exp_ablations.run_hook_overhead ())

let all =
  [
    { id = "fig5a"; engine = true; run = fig5a };
    { id = "fig5b"; engine = true; run = fig5b };
    { id = "fig6a"; engine = true; run = fig6a };
    { id = "fig6b"; engine = true; run = fig6b };
    { id = "fig6c"; engine = true; run = fig6c };
    {
      id = "fig6d";
      engine = true;
      run = fixed (fun () -> Exp_fig6.print_scale (Exp_fig6.run_scale ()));
    };
    {
      id = "table1";
      engine = true;
      run = fixed (fun () -> Exp_table1.print (Exp_table1.run ()));
    };
    { id = "multias"; engine = true; run = multias };
    { id = "scale"; engine = true; run = scale };
    { id = "ablations"; engine = true; run = fixed ablations };
    {
      id = "fig7a";
      engine = false;
      run = fixed (fun () -> Exp_fig7.print_cdf (Exp_fig7.run_cdf ()));
    };
    {
      id = "fig7b";
      engine = false;
      run = fixed (fun () -> Exp_fig7.print_timeline (Exp_fig7.run_timeline ()));
    };
    { id = "table2"; engine = false; run = fixed Exp_table2.print };
  ]

let ids = List.map (fun e -> e.id) all
let find id = List.find_opt (fun e -> String.equal e.id id) all
