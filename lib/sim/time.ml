type t = int
type span = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let minutes n = n * 60_000_000_000

let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let of_ms_f m = int_of_float (Float.round (m *. 1e6))
let of_us_f u = int_of_float (Float.round (u *. 1e3))

let to_sec_f s = float_of_int s /. 1e9
let to_ms_f s = float_of_int s /. 1e6
let to_us_f s = float_of_int s /. 1e3

let add t s = t + s
let diff later earlier = later - earlier

let pp fmt t =
  let a = abs t in
  if a >= 1_000_000_000 then Format.fprintf fmt "%.3fs" (to_sec_f t)
  else if a >= 1_000_000 then Format.fprintf fmt "%.3fms" (to_ms_f t)
  else if a >= 1_000 then Format.fprintf fmt "%.1fus" (to_us_f t)
  else Format.fprintf fmt "%dns" t

let pp_span = pp
let to_string t = Format.asprintf "%a" pp t
