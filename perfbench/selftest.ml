(* Self-tests for the benchmark's own logic: the percentile helper and
   the figure-row check, including a tampered expected value that must
   be reported as a failure.

     dune build @perfbench/selftest *)

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let raises_too_few f =
  match f () with _ -> false | exception Perfbench.Pct.Too_few _ -> true

let () =
  let open Perfbench in
  let seq n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* nearest rank: p50 of 1..100 is 50, p90 is 90, p99 of 1..1000 is 990 *)
  expect "p50 of 1..100" ((Pct.named 50. (seq 100)).Pct.value = 50.);
  expect "p90 of 1..100" ((Pct.named 90. (seq 100)).Pct.value = 90.);
  expect "p99 of 1..1000" ((Pct.named 99. (seq 1000)).Pct.value = 990.);
  expect "order does not matter"
    ((Pct.named 90. (Array.of_list (List.rev (Array.to_list (seq 100))))).Pct.value = 90.);
  (* exactly ten beyond is enough; nine is an error, never a silent max *)
  expect "p90 of 100 has 10 beyond" ((Pct.named 90. (seq 100)).Pct.beyond = 10);
  expect "p90 of 99 samples is refused" (raises_too_few (fun () -> Pct.named 90. (seq 99)));
  expect "p99 of 999 samples is refused" (raises_too_few (fun () -> Pct.named 99. (seq 999)));
  expect "p99 of 1000 samples is allowed" ((Pct.named 99. (seq 1000)).Pct.n = 1000);
  expect "empty sample is refused" (raises_too_few (fun () -> Pct.named 50. [||]));
  (* highest: the top of the ladder with ten beyond, and its count *)
  let h n = Pct.highest (seq n) in
  expect "highest of 10000 is p99.9" ((h 10000).Pct.p = 99.9);
  expect "highest of 1000 is p99" ((h 1000).Pct.p = 99.);
  expect "highest of 153 is p90" ((h 153).Pct.p = 90. && (h 153).Pct.n = 153);
  expect "highest of 200 is p95" ((h 200).Pct.p = 95.);
  expect "highest of 19 is refused" (raises_too_few (fun () -> Pct.highest (seq 19)));
  (* the figure check: the real row passes, a tampered one fails *)
  let f = List.nth Figs.expected 6 (* fig7 N=5 *) in
  let t = Uc.Compile.run_source ~seed:Figs.uc_seed f.Figs.source in
  let o = Figs.observe t in
  let oracle_d = Figs.oracle f in
  expect "fig7 N=5 matches its recorded row" (Figs.check f ~oracle_d o = None);
  let tampered = { f with Figs.sim_seconds = f.Figs.sim_seconds +. 1e-12 } in
  expect "a tampered simulated time is reported"
    (Figs.check tampered ~oracle_d o <> None);
  expect "a tampered router count is reported"
    (Figs.check { f with Figs.router_ops = f.Figs.router_ops + 1 } ~oracle_d o <> None);
  let bad_d = Array.copy oracle_d in
  bad_d.(0) <- bad_d.(0) + 1;
  expect "a tampered oracle array is reported" (Figs.check f ~oracle_d:bad_d o <> None);
  let g = List.nth Figs.expected 11 (* fig8 N=20 *) in
  let tg = Uc.Compile.run_source ~seed:Figs.uc_seed g.Figs.source in
  expect "fig8 N=20 matches Seqc.Obstacle"
    (Figs.check g ~oracle_d:(Figs.oracle g) (Figs.observe tg) = None);
  if !failures > 0 then (
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1)
  else print_endline "all self-tests passed"
