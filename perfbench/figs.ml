(* The paper's figure programs (figures 6, 7 and 8) and the checks that
   pin their results down.

   [expected] holds the simulated seconds, router ops and NEWS ops of
   the 17 figure rows recorded in the repository's BENCH_PR9.json
   snapshot (UC [rand] seed 20260705), copied here so the benchmark
   depends on no file outside its own directory.  Every engine must
   reproduce each row exactly. *)

let uc_seed = 20260705

type fig = {
  fig : string;  (** "fig6" | "fig7" | "fig8" *)
  n : int;
  source : string;
  sim_seconds : float;
  router_ops : int;
  news_ops : int;
}

let row fig n sim router news =
  let source =
    match fig with
    | "fig6" -> Uc_programs.Programs.shortest_path_n2 ~deterministic:false ~n ()
    | "fig7" -> Uc_programs.Programs.shortest_path_n3 ~deterministic:false ~n ()
    | _ -> Uc_programs.Programs.obstacle_grid ~n
  in
  { fig; n; source; sim_seconds = float_of_string sim; router_ops = router;
    news_ops = news }

let expected =
  [
    row "fig6" 8 "0.098086000000000007" 16 0;
    row "fig6" 16 "0.231958" 32 0;
    row "fig6" 24 "0.38032384004153896" 48 0;
    row "fig6" 32 "0.53810199999999997" 64 0;
    row "fig6" 48 "0.87323368008307589" 96 0;
    row "fig6" 64 "1.22719" 128 0;
    row "fig7" 5 "0.035204882283189007" 6 0;
    row "fig7" 10 "0.056088509710918673" 8 0;
    row "fig7" 15 "0.061704149717841786" 8 0;
    row "fig7" 20 "0.081457137138648342" 10 0;
    row "fig7" 25 "0.085320274277296673" 10 0;
    row "fig8" 20 "0.28459899999999999" 0 156;
    row "fig8" 40 "0.57307900000000001" 0 316;
    row "fig8" 60 "0.86155899999999996" 0 476;
    row "fig8" 80 "1.150039" 0 636;
    row "fig8" 100 "1.4385190000000001" 0 796;
    row "fig8" 120 "1.726999" 0 956;
  ]

let label f = Printf.sprintf "%s N=%d" f.fig f.n

(* What one execution of a figure program produced: everything the
   checks compare, captured outside the timed region. *)
type observed = {
  o_sim : float;
  o_router : int;
  o_news : int;
  o_d : int array;  (** the distance matrix [d], logical order *)
}

let observe t =
  let m = Uc.Compile.meter t in
  {
    o_sim = Uc.Compile.elapsed_seconds t;
    o_router = m.Cm.Cost.router_ops;
    o_news = m.Cm.Cost.news_ops;
    o_d = Uc.Compile.int_array t "d";
  }

(** The host oracle for a figure's [d]: [Seqc.Obstacle.run]'s [dist] for
    figure 8, the reference UC interpreter for figures 6 and 7. *)
let oracle f =
  if f.fig = "fig8" then (Seqc.Obstacle.run ~n:f.n ()).Seqc.Obstacle.dist
  else
    let ast = Uc.Compile.parse_source f.source in
    Uc.Interp.int_array (Uc.Interp.run ~seed:uc_seed ast) "d"

(** [None] when [o] matches the recorded row and the oracle's [d];
    otherwise what differs. *)
let check f ~oracle_d o =
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  if not (Float.equal o.o_sim f.sim_seconds) then
    add "simulated seconds %.17g, recorded %.17g" o.o_sim f.sim_seconds;
  if o.o_router <> f.router_ops then
    add "router_ops %d, recorded %d" o.o_router f.router_ops;
  if o.o_news <> f.news_ops then
    add "news_ops %d, recorded %d" o.o_news f.news_ops;
  if o.o_d <> oracle_d then add "d differs from the host oracle";
  match !bad with [] -> None | l -> Some (String.concat "; " (List.rev l))
