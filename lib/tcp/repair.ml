type t = {
  quad : Quad.t;
  mss : int;
  rcv_wnd : int;
  iss : int;
  irs : int;
  snd_una : int;
  snd_nxt : int;
  rcv_nxt : int;
  peer_wnd : int;
  unacked : (int * string) list;
}

let consistent t =
  let rec tiles pos = function
    | [] -> pos = t.snd_nxt
    | (seq, data) :: rest ->
        seq = pos && tiles (pos + String.length data) rest
  in
  t.iss <= t.snd_una && t.snd_una <= t.snd_nxt && t.irs < t.rcv_nxt
  && t.mss > 0 && t.rcv_wnd > 0
  && tiles t.snd_una t.unacked

