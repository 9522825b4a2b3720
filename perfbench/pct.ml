(* Percentiles over latency samples, by nearest rank.

   A percentile is only reported when at least [min_beyond] samples lie
   above it: with fewer, "p99" is really the maximum, and a maximum is
   not repeatable from run to run.  Asking for a named percentile that
   the samples cannot support is an error, never a silent max. *)

let min_beyond = 10

type t = {
  p : float;  (** the percentile, e.g. 99. *)
  value : float;
  n : int;  (** samples *)
  beyond : int;  (** samples strictly above the percentile's rank *)
}

exception Too_few of string

(* 1-based nearest rank of the [p]-th percentile among [n] samples *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let beyond ~n p = n - rank ~n p

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let of_sorted a p =
  let n = Array.length a in
  { p; value = a.(rank ~n p - 1); n; beyond = beyond ~n p }

(** [named p samples]: the [p]-th percentile.
    @raise Too_few when fewer than [min_beyond] samples lie above it. *)
let named p samples =
  let n = Array.length samples in
  if n = 0 || beyond ~n p < min_beyond then
    raise
      (Too_few
         (Printf.sprintf "p%g needs %d samples beyond it; %d samples give %d"
            p min_beyond n
            (if n = 0 then 0 else beyond ~n p)));
  of_sorted (sorted samples) p

(* the ladder [highest] climbs; finer steps need more samples *)
let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(** The highest percentile on the ladder with at least [min_beyond]
    samples above it.
    @raise Too_few when not even the median qualifies. *)
let highest samples =
  let n = Array.length samples in
  match List.find_opt (fun p -> n > 0 && beyond ~n p >= min_beyond) ladder with
  | Some p -> of_sorted (sorted samples) p
  | None ->
      raise (Too_few (Printf.sprintf "%d samples support no percentile" n))

(** "p99=2.315 ms (n=3120, 31 beyond)": a percentile always printed with
    its sample count. *)
let describe t =
  Printf.sprintf "p%g=%.4g ms (n=%d, %d beyond)" t.p t.value t.n t.beyond
