type month = {
  year : int;
  month : int;
  ases_on_tensor : int;
  total_ases : int;
  update_frequency : float;
  impacted_tb : float;
}

let total_ases = 6000
let baseline_impacted_tb = 34.0 (* per month before TENSOR *)
let pilot_ases = 100

(* Adoption: 0 until 2020-05; pilot (100 ASes) 2020-06 .. 2020-10; then an
   accelerating ramp completing 2021-12; full coverage through 2022. *)
let adoption ~year ~month =
  let idx = ((year - 2020) * 12) + month in (* 2020-01 -> 13? no: month index *)
  let i = idx - 1 in
  (* i: months since 2020-01, 0-based. *)
  if i < 5 then 0
  else if i <= 9 then pilot_ases
  else if i >= 23 then total_ases
  else begin
    (* Accelerating ramp over months 10..23 (2020-11 .. 2021-12). *)
    let t = float_of_int (i - 9) /. 14.0 in
    let frac = t *. t in
    pilot_ases + int_of_float (frac *. float_of_int (total_ases - pilot_ases))
  end

let update_frequency ~year ~month =
  let i = ((year - 2020) * 12) + month - 1 in
  if i < 12 then 1.0
  else if i < 24 then 1.0 +. (float_of_int (i - 12) /. 12.0)
  else min 3.0 (2.0 +. (float_of_int (i - 24) /. 12.0))

let series ~rng =
  List.concat_map
    (fun year ->
      List.map
        (fun month ->
          let ases_on_tensor = adoption ~year ~month in
          let coverage =
            float_of_int ases_on_tensor /. float_of_int total_ases
          in
          let update_frequency = update_frequency ~year ~month in
          (* Uncovered links suffer both failure downtime and update
             windows; update windows scale with update frequency. TENSOR
             links contribute zero (the two-year zero-downtime result). *)
          let failure_part = 0.6 and update_part = 0.4 in
          let impacted =
            baseline_impacted_tb
            *. (1.0 -. coverage)
            *. (failure_part +. (update_part *. update_frequency))
          in
          let impacted_tb = impacted *. (0.9 +. Sim.Rng.float rng 0.2) in
          { year; month; ases_on_tensor; total_ases;
            update_frequency; impacted_tb })
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
    [ 2020; 2021; 2022 ]

let label m = Printf.sprintf "%04d-%02d" m.year m.month
