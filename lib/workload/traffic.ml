open Sim

(* The mixture: 42 % heavy links (median 4 Gbps, sigma 2.6), the rest
   light (median 14 Mbps, sigma 1.8). *)
let heavy_weight = 0.42
let heavy_median_bps = 4.0e9
let heavy_sigma = 2.6
let light_median_bps = 14.0e6
let light_sigma = 1.8

let sample_link_bps rng =
  if Rng.bernoulli rng heavy_weight then
    Rng.lognormal rng ~mu:(log heavy_median_bps) ~sigma:heavy_sigma
  else Rng.lognormal rng ~mu:(log light_median_bps) ~sigma:light_sigma

let sample_population rng n = Array.init n (fun _ -> sample_link_bps rng)

let mean_bps arr =
  if Array.length arr = 0 then nan
  else Array.fold_left ( +. ) 0.0 arr /. float_of_int (Array.length arr)

let median_bps arr =
  if Array.length arr = 0 then nan
  else begin
    let sorted = Array.copy arr in
    Array.sort compare sorted;
    sorted.(Array.length sorted / 2)
  end

let fraction_above arr threshold =
  if Array.length arr = 0 then nan
  else
    float_of_int
      (Array.fold_left (fun acc v -> if v > threshold then acc + 1 else acc) 0 arr)
    /. float_of_int (Array.length arr)

let bytes_impacted ~avg_bps ~downtime = avg_bps /. 8.0 *. Time.to_sec_f downtime
