let check g ~axis src dst =
  let total = Geometry.size g in
  if Array.length src <> total || Array.length dst <> total then
    invalid_arg "News.shift: field size mismatch";
  if axis < 0 || axis >= Geometry.rank g then
    invalid_arg "News.shift: axis out of range"

(* In row-major order the positions whose [axis] coordinate lies in
   [lo_c, hi_c] form, within each block of [stride * extent] elements,
   one contiguous segment of [nrows * stride] elements starting at
   [lo_c * stride].  [segments] calls [k s e off] for each such segment
   clipped to the destination range [lo, hi), in ascending order; the
   source of position [p] is [p + off].  Walking them in order is exactly
   the per-element [p / stride mod extent] loop, without the divisions. *)
let segments g ~axis ~delta ~lo ~hi k =
  let stride = (Geometry.strides g).(axis) in
  let extent = Geometry.dim g axis in
  let lo_c = max 0 (-delta) and hi_c = min (extent - 1) (extent - 1 - delta) in
  if lo_c <= hi_c && lo < hi then begin
    let block = stride * extent in
    let seg = (hi_c - lo_c + 1) * stride in
    for b = lo / block to (hi - 1) / block do
      let start = (b * block) + (lo_c * stride) in
      let s = max start lo and e = min (start + seg) hi in
      if s < e then k s e (delta * stride)
    done
  end

let shift g ~axis ~delta ~lo ~hi src dst =
  check g ~axis src dst;
  segments g ~axis ~delta ~lo ~hi (fun s e off ->
      if src != dst || delta >= 0 then
        (* Array.blit has copy (memmove) semantics; the ascending
           reference loop shares them whenever it never reads a position
           it already overwrote, i.e. for distinct arrays or a
           non-negative delta. *)
        Array.blit src (s + off) dst s (e - s)
      else
        (* src == dst with delta < 0: the reference loop reads positions
           it has already written; keep its exact ascending order. *)
        for p = s to e - 1 do
          dst.(p) <- src.(p + off)
        done)

let shift_masked g ~axis ~delta ~mask ~lo ~hi src dst =
  if Array.length mask <> Geometry.size g then
    invalid_arg "News.shift_masked: mask size mismatch";
  check g ~axis src dst;
  segments g ~axis ~delta ~lo ~hi (fun s e off ->
      for p = s to e - 1 do
        if mask.(p) then dst.(p) <- src.(p + off)
      done)
