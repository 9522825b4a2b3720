(* The measuring program behind perfbench/run.py.

     ucbench.exe --workload W --seed N --seconds S --trace 0|1
                 --state DIR [--setup-only]

   Workloads (see NOTES.md for why each exists):
   - paper-figures: the 17 figure programs of the paper (figures 6, 7
     and 8), pre-compiled, each executed on the fast, sharded:2 and
     native engines in a seeded order;
   - batch-cold: 500 distinct seeded corpus sources through
     Ucd.Runner.run_jobs on 2 domains, every round on a fresh in-memory
     cache, so every job parses, lowers and runs, and a quarter tune;
   - serve-mixed: an in-process Ucd.Server (journal on, disk cache) fed
     by 2 client connections, each a closed loop keeping 4 requests of
     a seeded mix in flight.

   Every file the run writes lives under DIR, which the caller creates
   and removes.  The last line of standard output is one JSON object:
   {"correct","attempted","failed","metrics"} (with --setup-only:
   {"setup_s"}).  --trace 0 reports the end-to-end metrics, --trace 1
   the per-layer metrics of a traced run, whose spans are written to
   .perfbench-out/W-N.spans.jsonl. *)

open Perfbench

let ( // ) = Filename.concat
let now = Unix.gettimeofday

(* ---------------- run-wide bookkeeping ---------------- *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** the first few failure messages *)
}

let outcome = { attempted = 0; failed = 0; notes = [] }
let lock = Mutex.create ()

let attempt ?(n = 1) () =
  Mutex.protect lock (fun () -> outcome.attempted <- outcome.attempted + n)

let fail msg =
  Mutex.protect lock (fun () ->
      outcome.failed <- outcome.failed + 1;
      if List.length outcome.notes < 8 then outcome.notes <- msg :: outcome.notes)

(* the metrics measured so far: (name, value, unit) *)
let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* a growable float buffer for latency samples *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let get t = Array.sub t.a 0 t.n
  let length t = t.n
end

(* a named percentile of a latency sample, printed with its counts and
   with the highest percentile the sample supports *)
let pct label p xs =
  let r = Pct.named p xs in
  say "  %-28s %s; highest supported %s" label (Pct.describe r)
    (Pct.describe (Pct.highest xs));
  r.Pct.value

(* VmHWM: the process's peak resident set, in MB *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> fi kb /. 1024.)

(* The host's CPU accounting from /proc/stat: (busy, steal) ticks.
   Steal is time the hypervisor ran something else while this machine
   had work: on a shared host it is what makes wall-clock figures
   drift, so every run prints its share. *)
let cpu_ticks () =
  let line =
    In_channel.with_open_text "/proc/stat" In_channel.input_line
    |> Option.value ~default:""
  in
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
      let i = int_of_string in
      (i user + i nice + i system + i irq + i softirq, i steal)
  | _ -> (0, 0)
  | exception _ -> (0, 0)

(* A fixed integer loop, timed: the host's own speed, to read a run's
   figures against (the same code ran 20% slower for minutes at a time,
   with no steal). *)
let reference_ms () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := (!acc * 31) + i
  done;
  ignore (Sys.opaque_identity !acc);
  1000. *. (now () -. t0)

let timed_start () = (cpu_ticks (), reference_ms ())

let report_host ((b0, s0), ref0) =
  let ref1 = reference_ms () in
  let b1, s1 = cpu_ticks () in
  let busy = b1 - b0 and steal = s1 - s0 in
  say "  host: %d busy and %d stolen CPU ticks while timed (steal %.1f%%); \
       reference loop %.1f ms before, %.1f ms after"
    busy steal
    (100. *. div (fi steal) (fi (busy + steal)))
    ref0 ref1

(* The run's peak_rss_mb: VmHWM read once the measured work is done and
   before the checks, whose host oracles allocate far more than the
   program does (see [mark_rss]'s callers). *)
let rss_mark = Atomic.make None

let mark_rss () =
  if Atomic.get rss_mark = None then
    ignore (Atomic.compare_and_set rss_mark None (Some (peak_rss_mb ())))

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (path // f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

(* Tracing: [tr] is [Some (recorder, obs scope)] in the traced phase. *)
type tracer = (Spans.t * Obs.t) option

let span (tr : tracer) ?starts_job name f =
  match tr with Some (sp, _) -> Spans.with_span sp ?starts_job name f | None -> f ()

let obs_of (tr : tracer) = match tr with Some (_, o) -> o | None -> Obs.null

(* Print, for every root span name, the self time of each span name
   under it next to the roots' own wall time, which they add up to. *)
let print_self_times sp =
  List.iter
    (fun root ->
      let n, wall, _ = Spans.agg sp ~root root in
      if n > 0 then begin
        say "  self time under %S: %d root spans, traced wall %.3f ms each" root n
          (1000. *. wall /. fi n);
        let selfs = Spans.self_times sp ~root in
        List.iter
          (fun (name, s) ->
            say "    %-30s %10.4f ms per root  %5.1f%%" name
              (1000. *. s /. fi n) (100. *. div s wall))
          selfs;
        say "    %-30s %10.4f ms per root  (sum of self times)" "="
          (1000. *. List.fold_left (fun a (_, s) -> a +. s) 0. selfs /. fi n)
      end)
    (Spans.roots sp)

(* ---------------- one job through every layer ---------------- *)

(* A job walked through each layer's public call in turn, the way
   Ucd.Runner does it on a cache miss, each call its own span when
   traced.  Returns what verification needs. *)
let walk (tr : tracer) ~seed ~tune source =
  let obs = obs_of tr in
  let options = Uc.Codegen.default_options in
  let ast = span tr "uc.parse" (fun () -> Uc.Compile.parse_source ~obs source) in
  let layouts =
    if tune then
      Some
        (span tr "uc.layoutsel" (fun () ->
             (Uc.Layoutsel.search ~options
                (Uc.Optimize.fold_program (Uc.Transform.apply ast)))
               .Uc.Layoutsel.table))
    else None
  in
  let compiled =
    span tr "uc.lower" (fun () -> Uc.Compile.lower ?layouts ~options ~obs ast)
  in
  let t =
    span tr "uc.start_compiled" (fun () ->
        let t = Uc.Compile.start_compiled ~seed ~obs compiled in
        Cm.Machine.compile t.Uc.Compile.machine;
        t)
  in
  span tr "cm.exec.fast" (fun () -> Cm.Machine.run t.Uc.Compile.machine);
  (ast, compiled, t)

let close_float a b =
  Float.equal a b || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)

(* [None] when the walked run reproduces [row] and every global array
   and scalar equals the reference interpreter's. *)
let verify ~seed (row : Ucd.Report.result) (ast, compiled, t) =
  let diffs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  (match row.Ucd.Report.status with
  | Ucd.Report.Done -> ()
  | _ -> add "row not done");
  if not (Float.equal row.Ucd.Report.simulated_seconds (Uc.Compile.elapsed_seconds t))
  then add "simulated seconds differ from a direct run";
  if row.Ucd.Report.output <> Uc.Compile.output t then
    add "output differs from a direct run";
  (match Uc.Interp.run ~seed ast with
  | exception e -> add "interpreter raised %s" (Printexc.to_string e)
  | ir ->
      List.iter
        (fun (name, (m : Uc.Codegen.array_meta)) ->
          match m.Uc.Codegen.aty with
          | Uc.Ast.Tint ->
              if Uc.Interp.int_array ir name <> Uc.Compile.int_array t name then
                add "array %s differs from the interpreter" name
          | Uc.Ast.Tfloat ->
              let a = Uc.Interp.float_array ir name
              and b = Uc.Compile.float_array t name in
              if Array.length a <> Array.length b
                 || not (Array.for_all2 close_float a b)
              then add "array %s differs from the interpreter" name)
        compiled.Uc.Codegen.carrays;
      List.iter
        (fun (name, _) ->
          let same =
            match (Uc.Interp.scalar ir name, Uc.Compile.scalar t name) with
            | Uc.Interp.Vint a, Cm.Paris.SInt b -> a = b
            | Uc.Interp.Vfloat a, Cm.Paris.SFloat b -> close_float a b
            | Uc.Interp.Vint a, Cm.Paris.SFloat b -> close_float (fi a) b
            | Uc.Interp.Vfloat a, Cm.Paris.SInt b -> close_float a (fi b)
          in
          if not same then add "scalar %s differs from the interpreter" name)
        compiled.Uc.Codegen.cscalars);
  match !diffs with [] -> None | l -> Some (String.concat "; " (List.rev l))

let check_sample ~label rows_and_sources =
  List.iter
    (fun (name, source, seed, tune, row) ->
      match verify ~seed row (walk None ~seed ~tune source) with
      | None -> ()
      | Some why -> fail (Printf.sprintf "%s %s seed=%d: %s" label name seed why)
      | exception e ->
          fail
            (Printf.sprintf "%s %s seed=%d: check raised %s" label name seed
               (Printexc.to_string e)))
    rows_and_sources;
  say "  checked %d sampled jobs against a direct run and Uc.Interp"
    (List.length rows_and_sources)

(* ================= paper-figures ================= *)

let engines : (Cm.Machine.engine * string) array =
  [| (`Fast, "fast"); (`Sharded 2, "sharded2"); (`Native, "native") |]

(* set-up: a fresh native store, every program compiled, every .cmxs
   built, one warm-up run per (program, engine) *)
let pf_setup (tr : tracer) ~state =
  let obs = obs_of tr in
  ignore (Ucd.Cache.create ~dir:(state // "native-store") ());
  span tr "setup" (fun () ->
      let progs =
        List.map
          (fun (f : Figs.fig) ->
            let ast =
              span tr "uc.parse" (fun () -> Uc.Compile.parse_source ~obs f.Figs.source)
            in
            (f, span tr "uc.lower" (fun () -> Uc.Compile.lower ~obs ast)))
          Figs.expected
        |> Array.of_list
      in
      (* the native warm-up builds each program's .cmxs *)
      Array.iter
        (fun (_, c) ->
          Array.iter
            (fun (engine, ename) ->
              span tr ("warmup." ^ ename) (fun () ->
                  ignore (Uc.Compile.run_compiled ~seed:Figs.uc_seed ~engine c)))
            engines)
        progs;
      progs)

type pf_rec = {
  r_fig : int;
  r_engine : int;
  r_sim : float;
  r_router : int;
  r_news : int;
  r_d : Digest.t;
  r_icount : int;
  r_meter : Cm.Cost.meter;
  r_effective : Cm.Machine.engine;
}

(* Whole seeded sweeps (every (program, engine) once) until [seconds]
   have passed, at least 2 (so p90 has 10 samples beyond it).  Returns
   latencies (ms), timed seconds, and what each job produced, for the
   checks. *)
let pf_loop (tr : tracer) ~rng ~seconds progs =
  let obs = obs_of tr in
  let jobs =
    Array.concat
      (List.init (Array.length progs) (fun i ->
           Array.init (Array.length engines) (fun e -> (i, e))))
  in
  let lat = Samples.create () and recs = ref [] and timed = ref 0. in
  let start = now () and sweeps = ref 0 in
  while !sweeps < 2 || now () -. start < seconds do
    shuffle rng jobs;
    Array.iter
      (fun (i, e) ->
        let _, c = progs.(i) in
        let engine, ename = engines.(e) in
        attempt ();
        let t0 = now () in
        let t =
          span tr ~starts_job:true "job" (fun () ->
              span tr ("cm.exec." ^ ename) (fun () ->
                  Uc.Compile.run_compiled ~seed:Figs.uc_seed ~engine ~obs c))
        in
        let dt = now () -. t0 in
        timed := !timed +. dt;
        Samples.add lat (1000. *. dt);
        let o = Figs.observe t in
        recs :=
          {
            r_fig = i;
            r_engine = e;
            r_sim = o.Figs.o_sim;
            r_router = o.Figs.o_router;
            r_news = o.Figs.o_news;
            r_d = Digest.string (Marshal.to_string o.Figs.o_d []);
            r_icount = Cm.Machine.icount t.Uc.Compile.machine;
            r_meter = Uc.Compile.meter t;
            r_effective = Cm.Machine.effective_engine t.Uc.Compile.machine;
          }
          :: !recs)
      jobs;
    incr sweeps
  done;
  (Samples.get lat, !timed, List.rev !recs, !sweeps)

(* every job against its recorded row and its host oracle *)
let pf_check progs recs =
  let oracle =
    Array.map
      (fun ((f : Figs.fig), _) ->
        let d = Figs.oracle f in
        (d, Digest.string (Marshal.to_string d [])))
      progs
  in
  List.iter
    (fun r ->
      let f, _ = progs.(r.r_fig) in
      let oracle_d, oracle_digest = oracle.(r.r_fig) in
      let o =
        {
          Figs.o_sim = r.r_sim;
          o_router = r.r_router;
          o_news = r.r_news;
          (* the digest stands in for the array: equal digests, equal d *)
          o_d = (if Digest.equal r.r_d oracle_digest then oracle_d else [||]);
        }
      in
      match Figs.check f ~oracle_d o with
      | None -> ()
      | Some why ->
          fail
            (Printf.sprintf "%s on %s: %s" (Figs.label f)
               (snd engines.(r.r_engine)) why))
    recs

let paper_figures ~seed ~seconds ~trace ~state ~setup_only =
  let rng = Random.State.make [| seed; 6 |] in
  if setup_only || not trace then begin
    let t0 = now () in
    let progs = pf_setup None ~state in
    let setup_s = now () -. t0 in
    if setup_only then `Setup setup_s
    else begin
      let host = timed_start () in
      let lat, timed, recs, sweeps = pf_loop None ~rng ~seconds progs in
      report_host host;
      mark_rss ();
      pf_check progs recs;
      say "paper-figures: %d sweeps, %d jobs in %.3f s timed" sweeps
        (Array.length lat) timed;
      metric "jobs_per_s" "1/s" (fi (Array.length lat) /. timed);
      metric "latency_ms.p50" "ms" (pct "latency_ms.p50" 50. lat);
      metric "latency_ms.p90" "ms" (pct "latency_ms.p90" 90. lat);
      metric "setup_s" "s" setup_s;
      `Done
    end
  end
  else begin
    let sp = Spans.create () in
    let tr = Some (sp, Spans.obs sp) in
    let cg0 = Cm.Codegen.stats () in
    let progs = pf_setup tr ~state in
    let cg1 = Cm.Codegen.stats () in
    (* phase A: untraced, for the overhead baseline *)
    let lat_a, timed_a, recs_a, _ = pf_loop None ~rng ~seconds progs in
    let sh0 = Cm.Shard.Pool.stats () in
    let lat_b, timed_b, recs_b, sweeps = pf_loop tr ~rng ~seconds progs in
    let sh1 = Cm.Shard.Pool.stats () and cg2 = Cm.Codegen.stats () in
    pf_check progs (recs_a @ recs_b);
    say "paper-figures (traced): %d sweeps, %d jobs" sweeps (Array.length lat_b);
    let nprog = fi (Array.length progs) in
    let on_engine e = List.filter (fun r -> r.r_engine = e) recs_b in
    (* exec: the run_compiled span's self time (decode is its child) *)
    let exec_ms =
      Array.mapi
        (fun e (_, ename) ->
          let n, _, self = Spans.agg sp ~root:"job" ("cm.exec." ^ ename) in
          let icount = List.fold_left (fun a r -> a + r.r_icount) 0 (on_engine e) in
          metric ("cm.exec.ms." ^ ename) "ms" (1000. *. div self (fi n));
          metric ("cm.exec.ns_per_instr." ^ ename) "ns" (1e9 *. div self (fi icount));
          1000. *. div self (fi n))
        engines
    in
    (* one sweep's worth: each program once (the engines agree; checked) *)
    let sweep_total f =
      let seen = Hashtbl.create 17 in
      List.fold_left
        (fun acc r ->
          if Hashtbl.mem seen r.r_fig then acc
          else (
            Hashtbl.replace seen r.r_fig ();
            acc + f r))
        0 (on_engine 0)
    in
    let fast = exec_ms.(0) and sh = exec_ms.(1) in
    let stage name = Spans.total sp ~root:"setup" name in
    metric "uc.parse.ms_per_job" "ms" (1000. *. stage "uc.parse" /. nprog);
    metric "uc.lower.ms_per_job" "ms" (1000. *. stage "uc.lower" /. nprog);
    metric "cm.iropt.ms_per_job" "ms" (1000. *. stage "iropt.fixpoint" /. nprog);
    metric "cm.ir.instrs_per_job" "count"
      (Array.fold_left
         (fun a (_, c) -> a +. fi (Array.length c.Uc.Codegen.prog.Cm.Paris.code))
         0. progs
      /. nprog);
    metric "cm.decode.ms_per_job" "ms"
      (1000. *. div (Spans.total sp ~root:"job" "cm.decode") (fi (Array.length lat_b)));
    metric "cm.icount" "count" (fi (sweep_total (fun r -> r.r_icount)));
    metric "cm.ops.pe" "count" (fi (sweep_total (fun r -> r.r_meter.Cm.Cost.pe_ops)));
    metric "cm.ops.news" "count" (fi (sweep_total (fun r -> r.r_meter.Cm.Cost.news_ops)));
    metric "cm.ops.router" "count"
      (fi (sweep_total (fun r -> r.r_meter.Cm.Cost.router_ops)));
    metric "cm.shard.speedup" "ratio" (div fast sh);
    metric "cm.shard.efficiency" "ratio" (div fast sh /. 2.);
    metric "ucd.pool.shard_denied" "count"
      (fi (sh1.Cm.Shard.Pool.denied - sh0.Cm.Shard.Pool.denied));
    metric "cm.native.codegen_ms" "ms" (cg1.Cm.Codegen.codegen_ms -. cg0.Cm.Codegen.codegen_ms);
    metric "cm.native.build_ms" "ms" (cg1.Cm.Codegen.build_ms -. cg0.Cm.Codegen.build_ms);
    metric "cm.native.fallbacks" "count"
      (fi (List.length (List.filter (fun r -> r.r_effective <> `Native) (on_engine 2))));
    let hits = cg2.Cm.Codegen.mem_hits - cg1.Cm.Codegen.mem_hits
    and lookups =
      cg2.Cm.Codegen.mem_hits + cg2.Cm.Codegen.disk_hits + cg2.Cm.Codegen.builds
      - (cg1.Cm.Codegen.mem_hits + cg1.Cm.Codegen.disk_hits + cg1.Cm.Codegen.builds)
    in
    metric "cm.native.warm_hit_ratio" "ratio" (div (fi hits) (fi lookups));
    let jps_a = fi (Array.length lat_a) /. timed_a
    and jps_b = fi (Array.length lat_b) /. timed_b in
    metric "obs.overhead_pct" "%" (100. *. (jps_a -. jps_b) /. jps_a);
    print_self_times sp;
    `Traced sp
  end

(* ================= batch-cold ================= *)

(* (generator, sizes): every (generator, size) pair is one distinct
   source.  The draw takes each generator's largest size, then fills the
   batch from the rest: the heaviest jobs set the latency tail, so every
   seed's batch carries the same ones. *)
let generators =
  let module P = Uc_programs.Programs in
  let range a b = List.init (b - a + 1) (fun i -> a + i) in
  [
    ("reductions", (fun n -> P.reductions ~n), range 4 40);
    ("abs_sum", (fun n -> P.abs_sum ~n), range 4 40);
    ("matmul", (fun n -> P.matmul ~n), range 2 9);
    ("reciprocal", (fun n -> P.reciprocal ~n), range 4 40);
    ("odd_even_flags", (fun n -> P.odd_even_flags ~n), range 4 40);
    ("ranksort", (fun n -> P.ranksort ~n), range 4 24);
    ("prefix_sums", (fun n -> P.prefix_sums ~n), range 4 40);
    ("partial_sums_seq", (fun n -> P.partial_sums_seq ~n), range 4 40);
    ("shortest_path_n2", (fun n -> P.shortest_path_n2 ~n ()), range 3 12);
    ("shortest_path_n3", (fun n -> P.shortest_path_n3 ~n ()), range 3 10);
    ("shortest_path_solve", (fun n -> P.shortest_path_solve ~n ()), range 3 8);
    ("wavefront", (fun n -> P.wavefront ~n), range 3 10);
    ("odd_even_sort", (fun n -> P.odd_even_sort ~n), range 4 24);
    ("digit_count", (fun n -> P.digit_count ~n), range 10 60);
    ("digit_count_det", (fun n -> P.digit_count_det ~n), range 10 60);
    ("obstacle_grid", (fun n -> P.obstacle_grid ~n), range 6 16);
    ("stencil", (fun n -> P.stencil ~n ~steps:4 ()), range 8 40);
    ("folded_pairs", (fun n -> P.folded_pairs ~n:(2 * n) ()), range 4 20);
    ("copied_broadcast", (fun n -> P.copied_broadcast ~n ~copies:4 ()), range 8 40);
    ("heat", (fun n -> P.heat ~n ()), range 6 16);
  ]

let batch_size = 500

(* Every 4th size of each generator is tuned, whatever the draw: tuning
   the heaviest jobs or not moves the tail, so that is not left to the
   seed. *)
let bc_jobs ~seed =
  let rng = Random.State.make [| seed; 500 |] in
  let source g mk n = (Printf.sprintf "%s/%d" g n, n mod 4 = 3, fun () -> mk n) in
  let largest, rest =
    List.fold_left
      (fun (l, r) (g, mk, sizes) ->
        match List.rev sizes with
        | top :: others ->
            (source g mk top :: l, List.map (source g mk) others @ r)
        | [] -> (l, r))
      ([], []) generators
  in
  let rest = Array.of_list rest in
  shuffle rng rest;
  let batch =
    Array.append (Array.of_list largest)
      (Array.sub rest 0 (batch_size - List.length largest))
  in
  shuffle rng batch;
  Array.to_list batch
  |> List.mapi (fun i (name, tune, mk) ->
         Ucd.Job.make ~seed:(seed + i) ~tune ~name ~source:(mk ()) ())

(* one round: a fresh in-memory cache, so every job misses it *)
let bc_round ?obs jobs =
  let cache = Ucd.Cache.create () in
  (Ucd.Runner.run_jobs ~domains:2 ?obs ~cache jobs, cache)

(* rounds until [seconds] have passed (at least 2); every row
   must be done and identical (canonically) to the reference round *)
let bc_loop ?obs ~seconds ~reference jobs =
  let lat = Samples.create () and timed = ref 0. and rounds = ref 0 in
  let start = now () in
  let last = ref ([], Ucd.Cache.create ()) in
  while !rounds < 2 || now () -. start < seconds do
    attempt ~n:batch_size ();
    let t0 = now () in
    let rows, cache = bc_round ?obs jobs in
    timed := !timed +. (now () -. t0);
    List.iter2
      (fun (r : Ucd.Report.result) ref_line ->
        Samples.add lat (1000. *. r.Ucd.Report.wall_seconds);
        match r.Ucd.Report.status with
        | Ucd.Report.Done ->
            if Ucd.Report.canonical_json r <> ref_line then
              fail (r.Ucd.Report.job_name ^ ": row differs between rounds")
        | _ -> fail (r.Ucd.Report.job_name ^ ": " ^ Ucd.Report.json_line r))
      rows reference;
    last := (rows, cache);
    incr rounds
  done;
  (Samples.get lat, !timed, !rounds, !last)

let bc_sample ~seed jobs rows =
  let rng = Random.State.make [| seed; 7 |] in
  let a = Array.of_list (List.combine jobs rows) in
  shuffle rng a;
  Array.sub a 0 20
  |> Array.to_list
  |> List.map (fun ((j : Ucd.Job.t), r) ->
         (j.Ucd.Job.name, j.Ucd.Job.source, j.Ucd.Job.seed, j.Ucd.Job.tune, r))

let bc_setup ~seed =
  let jobs = bc_jobs ~seed in
  let warm, _ = bc_round jobs in
  (jobs, List.map Ucd.Report.canonical_json warm)

let batch_cold ~seed ~seconds ~trace ~setup_only =
  let t0 = now () in
  let jobs, reference = bc_setup ~seed in
  let setup_s = now () -. t0 in
  if setup_only then `Setup setup_s
  else if not trace then begin
    let host = timed_start () in
    let lat, timed, rounds, (rows, _) = bc_loop ~seconds ~reference jobs in
    report_host host;
    mark_rss ();
    check_sample ~label:"batch-cold" (bc_sample ~seed jobs rows);
    say "batch-cold: %d rounds of %d jobs in %.3f s timed" rounds batch_size timed;
    metric "jobs_per_s" "1/s" (fi (Array.length lat) /. timed);
    metric "latency_ms.p50" "ms" (pct "latency_ms.p50" 50. lat);
    (* p90, not p99: the slowest 1% are the few heaviest jobs caught
       behind the other domain's collections, and moved 16-40% from run
       to run on identical code *)
    metric "latency_ms.p90" "ms" (pct "latency_ms.p90" 90. lat);
    metric "setup_s" "s" setup_s;
    `Done
  end
  else begin
    let sp = Spans.create () in
    let obs = Spans.obs sp in
    let tr = Some (sp, obs) in
    let lat_a, timed_a, _, _ = bc_loop ~seconds ~reference jobs in
    let lat_b, timed_b, rounds, (rows, cache) =
      bc_loop ~obs ~seconds ~reference jobs
    in
    check_sample ~label:"batch-cold" (bc_sample ~seed jobs rows);
    (* the layer walk: each job of one round through every layer's public
       call, and once through Ucd.Runner.run_job on a fresh cache *)
    let instrs = ref 0 and tuned = ref 0 and icount = ref 0 in
    let pe = ref 0 and news = ref 0 and router = ref 0 in
    List.iter2
      (fun (j : Ucd.Job.t) row ->
        let _, compiled, t =
          span tr ~starts_job:true "walk" (fun () ->
              let w = walk tr ~seed:j.Ucd.Job.seed ~tune:j.Ucd.Job.tune j.Ucd.Job.source in
              span tr "ucd.report.encode" (fun () -> ignore (Ucd.Report.json_line row));
              w)
        in
        instrs := !instrs + Array.length compiled.Uc.Codegen.prog.Cm.Paris.code;
        let m = Uc.Compile.meter t in
        icount := !icount + Cm.Machine.icount t.Uc.Compile.machine;
        pe := !pe + m.Cm.Cost.pe_ops;
        news := !news + m.Cm.Cost.news_ops;
        router := !router + m.Cm.Cost.router_ops;
        if j.Ucd.Job.tune then incr tuned;
        ignore
          (span tr ~starts_job:true "ucd.runner.run_job" (fun () ->
               Ucd.Runner.run_job ~obs ~cache:(Ucd.Cache.create ()) j)))
      jobs rows;
    let n = fi batch_size in
    let w name = 1000. *. Spans.total sp ~root:"walk" name in
    let parse = w "uc.parse" /. n
    and layoutsel = w "uc.layoutsel" /. n
    and lower = w "uc.lower" /. n
    and decode = w "uc.start_compiled" /. n
    and exec = w "cm.exec.fast" /. n in
    let r name = 1000. *. Spans.self sp ~root:"ucd.runner.run_job" name /. n in
    let runner =
      1000. *. Spans.total sp ~root:"ucd.runner.run_job" "ucd.runner.run_job" /. n
    in
    metric "uc.parse.ms_per_job" "ms" parse;
    metric "uc.layoutsel.ms_per_tuned_job" "ms" (w "uc.layoutsel" /. fi !tuned);
    metric "uc.lower.ms_per_job" "ms" lower;
    metric "cm.iropt.ms_per_job" "ms" (w "iropt.fixpoint" /. n);
    metric "cm.ir.instrs_per_job" "count" (fi !instrs /. n);
    metric "cm.decode.ms_per_job" "ms" decode;
    metric "cm.exec.ms.fast" "ms" exec;
    metric "cm.exec.ns_per_instr.fast" "ns"
      (1e9 *. div (Spans.total sp ~root:"walk" "cm.exec.fast") (fi !icount));
    (* exact counts: one round's jobs, each once *)
    metric "cm.icount" "count" (fi !icount);
    metric "cm.ops.pe" "count" (fi !pe);
    metric "cm.ops.news" "count" (fi !news);
    metric "cm.ops.router" "count" (fi !router);
    metric "ucd.runner.ms_per_job" "ms" runner;
    (* the runner's own spans cover parse, lower and decode; what its job
       span leaves uncovered is tuning, execution and the runner itself *)
    metric "ucd.runner.overhead_ms_per_job" "ms"
      (r "ucd.runner.run_job" +. r "job" -. layoutsel -. exec);
    metric "ucd.report.encode_us" "us" (1000. *. w "ucd.report.encode" /. n);
    (* the last traced round's cache: no hits, by design *)
    let cs = Ucd.Cache.stats cache in
    metric "ucd.cache.run_hit_ratio" "ratio"
      (div (fi cs.Ucd.Cache.run_hits) (fi (cs.Ucd.Cache.run_hits + cs.Ucd.Cache.run_misses)));
    metric "ucd.cache.ir_hit_ratio" "ratio"
      (div (fi cs.Ucd.Cache.ir_hits) (fi (cs.Ucd.Cache.ir_hits + cs.Ucd.Cache.ir_misses)));
    let jps_a = fi (Array.length lat_a) /. timed_a
    and jps_b = fi (Array.length lat_b) /. timed_b in
    say "batch-cold (traced): %d rounds; untraced %.1f jobs/s, traced %.1f jobs/s"
      rounds jps_a jps_b;
    metric "obs.overhead_pct" "%" (100. *. (jps_a -. jps_b) /. jps_a);
    print_self_times sp;
    `Traced sp
  end

(* ================= serve-mixed ================= *)

let corpus = Array.of_list Uc_programs.Programs.all_named

type served = {
  lat : Samples.t;  (** Submit -> Report, ms *)
  admit : Samples.t;  (** Submit -> Accepted/Resumed, ms *)
  queue : Samples.t;  (** (Accepted -> Report) - row wall, ms *)
  runner : Samples.t;  (** row wall, ms *)
  mutable resumed : int;
  mutable rejected : int;
  mutable frames : Ucd.Proto.client_msg list;  (** a sample, for encode timing *)
  mutable replies : Ucd.Proto.server_msg list;  (** a sample, for decode timing *)
  mutable sample : (string * string * int * bool * Ucd.Report.result) list;
}

let served () =
  {
    lat = Samples.create ();
    admit = Samples.create ();
    queue = Samples.create ();
    runner = Samples.create ();
    resumed = 0;
    rejected = 0;
    frames = [];
    replies = [];
    sample = [];
  }

type server = {
  srv : Ucd.Server.t;
  clients : Ucd.Client.t array;
  dir : string;  (** cache dir (journal inside) *)
}

(* one request in flight on a connection *)
type pending = {
  p_name : string;
  p_text : string;  (** the UC source the job runs *)
  p_seed : int;
  p_corpus : bool;  (** a corpus program (may be resubmitted later) *)
  p_msg : Ucd.Proto.client_msg;
  p_t0 : float;
  mutable p_acc : float;
}

(* [window] requests in flight on connection [c], refilled from [next]
   until it returns [None], then drained.  [on_done] gets each finished
   request and its row; rejected and failed requests are counted. *)
let pipeline c (st : served) ~window ~keep ~next ~on_done =
  let by_ref = Hashtbl.create 16 and by_job = Hashtbl.create 16 in
  let k = ref 0 and more = ref true in
  let fill () =
    while !more && Hashtbl.length by_ref < window do
      match next () with
      | None -> more := false
      | Some (name, text, seed, corpus, sub) ->
          incr k;
          let cref = string_of_int !k in
          let msg = Ucd.Proto.Submit { sub with Ucd.Proto.client_ref = Some cref } in
          attempt ();
          let p =
            { p_name = name; p_text = text; p_seed = seed; p_corpus = corpus;
              p_msg = msg; p_t0 = now (); p_acc = nan }
          in
          (match Ucd.Client.send c msg with
          | Ok () -> Hashtbl.replace by_ref cref p
          | Error e ->
              fail ("send: " ^ e);
              more := false)
    done
  in
  (* the server acknowledges after queueing, so a fast job's report can
     overtake its acknowledgement: such reports wait in [early].  Two
     requests for one in-flight digest share a job id (the second is
     [Resumed]), and each gets a report: both tables may hold several
     bindings per job (Hashtbl.add) *)
  let early = Hashtbl.create 4 in
  let complete cref t1 reply row =
    let p = Hashtbl.find by_ref cref in
    Hashtbl.remove by_ref cref;
    match Ucd.Report.of_json row with
    | Error e -> fail ("report row: " ^ e)
    | Ok r ->
        let wall = 1000. *. r.Ucd.Report.wall_seconds in
        Samples.add st.lat (1000. *. (t1 -. p.p_t0));
        Samples.add st.admit (1000. *. (Float.min p.p_acc t1 -. p.p_t0));
        Samples.add st.queue ((1000. *. (t1 -. Float.min p.p_acc t1)) -. wall);
        Samples.add st.runner wall;
        if keep () then begin
          st.frames <- p.p_msg :: st.frames;
          st.replies <- reply :: st.replies
        end;
        (match r.Ucd.Report.status with
        | Ucd.Report.Done -> ()
        | _ -> fail (p.p_name ^ ": " ^ Ucd.Report.json_line r));
        on_done p r
  in
  let accepted cref job =
    match cref with
    | Some cref when Hashtbl.mem by_ref cref -> (
        let p = Hashtbl.find by_ref cref in
        p.p_acc <- now ();
        match Hashtbl.find_opt early job with
        | Some (t1, reply, row) ->
            Hashtbl.remove early job;
            complete cref t1 reply row
        | None -> Hashtbl.add by_job job cref)
    | _ ->
        fail "acknowledgement for an unknown request";
        Hashtbl.reset by_ref
  in
  fill ();
  while Hashtbl.length by_ref > 0 do
    (match Ucd.Client.recv c with
    | Ok (Ucd.Proto.Accepted { client_ref; job; _ }) -> accepted client_ref job
    | Ok (Ucd.Proto.Resumed { client_ref; job; _ }) ->
        st.resumed <- st.resumed + 1;
        accepted client_ref job
    | Ok (Ucd.Proto.Rejected { client_ref; msg; _ }) ->
        st.rejected <- st.rejected + 1;
        fail ("rejected: " ^ msg);
        Option.iter (Hashtbl.remove by_ref) client_ref
    | Ok (Ucd.Proto.Report { job; row } as reply) -> (
        let t1 = now () in
        match Hashtbl.find_opt by_job job with
        | None -> Hashtbl.add early job (t1, reply, row)
        | Some cref ->
            Hashtbl.remove by_job job;
            complete cref t1 reply row)
    | Ok _ -> ()
    | Error e ->
        fail ("recv: " ^ e);
        Hashtbl.reset by_ref);
    fill ()
  done

let corpus_submit ?seed name =
  { (Ucd.Proto.submit_defaults ~name ~source:(Ucd.Proto.Corpus name)) with
    Ucd.Proto.seed }

let sv_start ~dir ~obs =
  Unix.mkdir dir 0o700;
  let cache_dir = dir // "cache" in
  let srv =
    Ucd.Server.start ~obs ~cache_dir
      { Ucd.Server.default_config with Ucd.Server.socket_path = Some (dir // "s.sock") }
  in
  let clients =
    Array.init 2 (fun i ->
        match
          Ucd.Client.connect ~tenant:(Printf.sprintf "bench%d" i)
            (Ucd.Client.Unix_path (dir // "s.sock"))
        with
        | Ok c -> c
        | Error e -> failwith ("connect: " ^ e))
  in
  (* warm the AST and IR caches: every corpus program once *)
  let todo = ref (Array.to_list corpus) in
  pipeline clients.(0) (served ()) ~window:1 ~keep:(fun () -> false)
    ~next:(fun () ->
      match !todo with
      | [] -> None
      | (name, text) :: rest ->
          todo := rest;
          Some (name, text, 0, false, corpus_submit name))
    ~on_done:(fun _ _ -> ());
  { srv; clients; dir = cache_dir }

let sv_stop s =
  Array.iter Ucd.Client.close s.clients;
  ignore (Ucd.Server.stop s.srv)

(* requests in flight per connection: enough that the pool always has
   queued work, within the server's default queue bound of 16 *)
let window = 4

(* One connection's closed loop: about a third resubmits an earlier
   (program, seed) of this connection (a run-cache hit), about a tenth
   is an inline source with fresh text (a full compile), the rest are
   corpus programs with a fresh seed (AST and IR hit, the run misses).
   A seeded reservoir of 15 finished jobs is kept for the checks. *)
let sv_client s (st : served) ~ci ~seed ~keep_frames ~stop =
  let rng = Random.State.make [| seed; 100 + ci |] in
  let past = ref [||] and n_past = ref 0 in
  let k = ref 0 and seen = ref 0 in
  let next () =
    if stop () then None
    else begin
      incr k;
      let r = Random.State.float rng 1. in
      let name, text, job_seed, corpus =
        if r < 0.33 && !n_past > 0 then
          let name, s = !past.(Random.State.int rng !n_past) in
          (name, List.assoc name Uc_programs.Programs.all_named, s, true)
        else if r < 0.43 then
          let name, text = corpus.(Random.State.int rng (Array.length corpus)) in
          ( name,
            Printf.sprintf "%s\n// fresh text %d.%d.%d\n" text seed ci !k,
            1 + Random.State.int rng 1_000_000,
            false )
        else
          let name, text = corpus.(Random.State.int rng (Array.length corpus)) in
          (name, text, (1_000_000 * (ci + 1)) + !k, true)
      in
      let sub =
        if corpus then corpus_submit ~seed:job_seed name
        else
          { (Ucd.Proto.submit_defaults ~name ~source:(Ucd.Proto.Inline text)) with
            Ucd.Proto.seed = Some job_seed }
      in
      Some (name, text, job_seed, corpus, sub)
    end
  in
  let on_done p row =
    if p.p_corpus && !n_past < 4096 then begin
      if !n_past = Array.length !past then
        past := Array.append !past (Array.make (max 64 !n_past) ("", 0));
      !past.(!n_past) <- (p.p_name, p.p_seed);
      incr n_past
    end;
    incr seen;
    let entry = (p.p_name, p.p_text, p.p_seed, false, row) in
    if List.length st.sample < 15 then st.sample <- entry :: st.sample
    else
      let j = Random.State.int rng !seen in
      if j < 15 then st.sample <- List.mapi (fun i e -> if i = j then entry else e) st.sample
  in
  pipeline s.clients.(ci) st ~window
    ~keep:(fun () -> keep_frames && Samples.length st.lat <= 2000)
    ~next ~on_done

(* jobs after which serve-mixed reads its peak RSS; every run serves at
   least this many *)
let rss_jobs = 5000

(* Both connections, each on its own thread, until [seconds] have passed
   and at least [rss_jobs] jobs have finished. *)
let sv_loop ?(keep_frames = false) s ~seed ~seconds =
  let start = now () in
  let finished = Atomic.make 0 in
  let stop () =
    let n = Atomic.get finished in
    (* the server keeps every result in memory, so its footprint grows
       with the jobs served: read it at a fixed job count, not at a
       throughput-dependent end *)
    if n >= rss_jobs then mark_rss ();
    n >= rss_jobs && now () -. start >= seconds
  in
  let states = Array.init 2 (fun _ -> served ()) in
  let threads =
    Array.mapi
      (fun ci st ->
        Thread.create (fun () ->
            let before = ref 0 in
            sv_client s st ~ci ~seed ~keep_frames ~stop:(fun () ->
                let c = Samples.length st.lat in
                ignore (Atomic.fetch_and_add finished (c - !before));
                before := c;
                stop ())) ())
      states
  in
  Array.iter Thread.join threads;
  let timed = now () -. start in
  let merged = served () in
  Array.iter
    (fun st ->
      List.iter
        (fun (f : served -> Samples.t) ->
          Array.iter (Samples.add (f merged)) (Samples.get (f st)))
        [ (fun x -> x.lat); (fun x -> x.admit); (fun x -> x.queue); (fun x -> x.runner) ];
      merged.resumed <- merged.resumed + st.resumed;
      merged.rejected <- merged.rejected + st.rejected;
      merged.frames <- st.frames @ merged.frames;
      merged.replies <- st.replies @ merged.replies;
      merged.sample <- st.sample @ merged.sample)
    states;
  (merged, timed)

let jint path j =
  let rec go j = function
    | [] -> ( match j with Obs.Json.Int i -> i | _ -> 0)
    | k :: rest -> (
        match j with
        | Obs.Json.Obj kvs -> (
            match List.assoc_opt k kvs with Some v -> go v rest | None -> 0)
        | _ -> 0)
  in
  go j path

let serve_mixed ~seed ~seconds ~trace ~state ~setup_only =
  if setup_only || not trace then begin
    let t0 = now () in
    let s = sv_start ~dir:(state // "serve") ~obs:Obs.null in
    let setup_s = now () -. t0 in
    if setup_only then (
      sv_stop s;
      `Setup setup_s)
    else begin
      let st, timed =
        Fun.protect ~finally:(fun () -> sv_stop s) (fun () ->
            let host = timed_start () in
            let r = sv_loop s ~seed ~seconds in
            report_host host;
            r)
      in
      check_sample ~label:"serve-mixed" st.sample;
      let lat = Samples.get st.lat in
      say "serve-mixed: %d jobs in %.3f s, %d resumed, %d rejected"
        (Array.length lat) timed st.resumed st.rejected;
      metric "jobs_per_s" "1/s" (fi (Array.length lat) /. timed);
      metric "latency_ms.p50" "ms" (pct "latency_ms.p50" 50. lat);
      (* p90, not p99: the p99 amplified the host's noise (in eight
         runs of identical code during a host drift it spread 24.5%,
         against 15.9% for p90, which moved with p50; see NOTES.md) *)
      metric "latency_ms.p90" "ms" (pct "latency_ms.p90" 90. lat);
      metric "setup_s" "s" setup_s;
      `Done
    end
  end
  else begin
    (* phase A: the untraced server.  Every per-layer figure of the
       service (queue, admission, runner, cache, journal, frames) is
       read from it, so none of them pays for the trace's locks *)
    let s = sv_start ~dir:(state // "serve-a") ~obs:Obs.null in
    let stats0 = Ucd.Server.stats s.srv in
    let st, timed_a, stats1 =
      Fun.protect ~finally:(fun () -> sv_stop s) (fun () ->
          let st, timed = sv_loop ~keep_frames:true s ~seed ~seconds in
          (st, timed, Ucd.Server.stats s.srv))
    in
    (* phase B: the same load against a server carrying the trace scope.
       Its 2 pool domains and 2 client threads contend for the scope's
       and the recorder's locks, so it gives only the trace's own cost
       and the self-time table under "job" *)
    let sp = Spans.create () in
    let obs = Spans.obs sp in
    let s_b = sv_start ~dir:(state // "serve-b") ~obs in
    let st_b, timed_b =
      Fun.protect ~finally:(fun () -> sv_stop s_b) (fun () ->
          sv_loop s_b ~seed ~seconds)
    in
    let sample = st.sample @ st_b.sample in
    check_sample ~label:"serve-mixed" sample;
    let lat = Samples.get st.lat in
    let n = fi (Array.length lat) in
    say "serve-mixed (traced): untraced phase %d jobs, %d resumed, %d rejected"
      (Array.length lat) st.resumed st.rejected;
    (* the layer walk, single-threaded as on batch-cold: each checked job
       through every layer's public call, a full compile and run each *)
    let tr = Some (sp, obs) in
    let icount = ref 0 and instrs = ref 0 in
    List.iter
      (fun (_, text, job_seed, _, _) ->
        let _, compiled, t =
          span tr ~starts_job:true "walk" (fun () -> walk tr ~seed:job_seed ~tune:false text)
        in
        icount := !icount + Cm.Machine.icount t.Uc.Compile.machine;
        instrs := !instrs + Array.length compiled.Uc.Codegen.prog.Cm.Paris.code)
      sample;
    let nwalk = fi (List.length sample) in
    let w name = 1000. *. Spans.total sp ~root:"walk" name /. nwalk in
    let parse = w "uc.parse" and lower = w "uc.lower"
    and decode = w "uc.start_compiled" and exec = w "cm.exec.fast" in
    metric "uc.parse.ms_per_job" "ms" parse;
    metric "uc.lower.ms_per_job" "ms" lower;
    metric "cm.iropt.ms_per_job" "ms" (w "iropt.fixpoint");
    metric "cm.ir.instrs_per_job" "count" (fi !instrs /. nwalk);
    metric "cm.decode.ms_per_job" "ms" decode;
    metric "cm.exec.ms.fast" "ms" exec;
    metric "cm.exec.ns_per_instr.fast" "ns"
      (1e9 *. div (Spans.total sp ~root:"walk" "cm.exec.fast") (fi !icount));
    let d k = fi (jint [ "cache"; k ] stats1 - jint [ "cache"; k ] stats0) in
    metric "ucd.cache.run_hit_ratio" "ratio" (div (d "run_hits") (d "run_hits" +. d "run_misses"));
    metric "ucd.cache.ir_hit_ratio" "ratio" (div (d "ir_hits") (d "ir_hits" +. d "ir_misses"));
    (* the cache dir and the journal in it cover every job this server
       took, set-up included *)
    let served_total = fi (jint [ "server"; "jobs_submitted" ] stats1) in
    let jpath = Ucd.Journal.path ~dir:s.dir in
    let journal =
      match In_channel.with_open_bin jpath In_channel.input_all with
      | text -> text
      | exception Sys_error _ -> ""
    in
    metric "ucd.cache.disk_bytes_per_job" "B"
      (div (fi (dir_bytes s.dir - String.length journal)) served_total);
    let runner = Array.fold_left ( +. ) 0. (Samples.get st.runner) /. n in
    metric "ucd.runner.ms_per_job" "ms" runner;
    (* a served job parses on an AST miss, lowers on an IR miss, and
       decodes and runs on a run miss: the walked stage costs, each
       weighted by how often the runner paid it *)
    metric "ucd.runner.overhead_ms_per_job" "ms"
      (runner
      -. ((parse *. d "ast_misses") +. (lower *. d "ir_misses")
         +. ((decode +. exec) *. d "run_misses"))
         /. n);
    metric "ucd.pool.queue_ms.p50" "ms" (pct "ucd.pool.queue_ms.p50" 50. (Samples.get st.queue));
    metric "ucd.pool.queue_ms.p99" "ms" (pct "ucd.pool.queue_ms.p99" 99. (Samples.get st.queue));
    metric "ucd.pool.max_depth" "count" (fi (jint [ "pool"; "max_depth" ] stats1));
    metric "ucd.server.admit_ms.p50" "ms" (pct "ucd.server.admit_ms.p50" 50. (Samples.get st.admit));
    metric "ucd.server.admit_ms.p99" "ms" (pct "ucd.server.admit_ms.p99" 99. (Samples.get st.admit));
    metric "ucd.server.resumed" "count" (fi st.resumed);
    metric "ucd.server.rejected" "count" (fi st.rejected);
    (* Ucd.Proto and Ucd.Report on the client's own frames, re-timed in
       bulk: one call is below the clock's resolution *)
    let bulk f xs =
      let t0 = now () in
      for _ = 1 to 10 do List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs done;
      1e6 *. (now () -. t0) /. fi (10 * max 1 (List.length xs))
    in
    let lines = List.map Ucd.Proto.server_line st.replies in
    metric "ucd.proto.encode_us" "us" (bulk Ucd.Proto.client_line st.frames);
    metric "ucd.proto.decode_us" "us" (bulk Ucd.Proto.server_of_line lines);
    let rows =
      List.filter_map
        (function
          | Ucd.Proto.Report { row; _ } -> Result.to_option (Ucd.Report.of_json row)
          | _ -> None)
        st.replies
    in
    metric "ucd.report.encode_us" "us" (bulk Ucd.Report.json_line rows);
    let records = List.filter (( <> ) "") (String.split_on_char '\n' journal) in
    metric "ucd.journal.bytes_per_job" "B" (div (fi (String.length journal)) served_total);
    metric "ucd.journal.records_per_job" "count"
      (div (fi (List.length records)) served_total);
    let jps_a = n /. timed_a and jps_b = fi (Samples.length st_b.lat) /. timed_b in
    say "serve-mixed (traced): untraced %.1f jobs/s, traced %.1f jobs/s" jps_a jps_b;
    metric "obs.overhead_pct" "%" (100. *. (jps_a -. jps_b) /. jps_a);
    print_self_times sp;
    `Traced sp
  end

(* ================= command line ================= *)

let end_to_end = [ "jobs_per_s"; "latency_ms.p50"; "latency_ms.p90"; "setup_s"; "peak_rss_mb" ]

(* every per-layer metric, with its unit; a workload reports the ones
   its jobs exercise and 0 for the rest (see NOTES.md) *)
let per_layer =
  [
    ("uc.parse.ms_per_job", "ms");
    ("uc.layoutsel.ms_per_tuned_job", "ms");
    ("uc.lower.ms_per_job", "ms");
    ("cm.iropt.ms_per_job", "ms");
    ("cm.ir.instrs_per_job", "count");
    ("cm.decode.ms_per_job", "ms");
    ("cm.exec.ms.fast", "ms");
    ("cm.exec.ms.sharded2", "ms");
    ("cm.exec.ms.native", "ms");
    ("cm.exec.ns_per_instr.fast", "ns");
    ("cm.exec.ns_per_instr.sharded2", "ns");
    ("cm.exec.ns_per_instr.native", "ns");
    ("cm.icount", "count");
    ("cm.ops.pe", "count");
    ("cm.ops.news", "count");
    ("cm.ops.router", "count");
    ("cm.shard.speedup", "ratio");
    ("cm.shard.efficiency", "ratio");
    ("ucd.pool.shard_denied", "count");
    ("cm.native.codegen_ms", "ms");
    ("cm.native.build_ms", "ms");
    ("cm.native.fallbacks", "count");
    ("cm.native.warm_hit_ratio", "ratio");
    ("ucd.cache.run_hit_ratio", "ratio");
    ("ucd.cache.ir_hit_ratio", "ratio");
    ("ucd.cache.disk_bytes_per_job", "B");
    ("ucd.runner.ms_per_job", "ms");
    ("ucd.runner.overhead_ms_per_job", "ms");
    ("ucd.pool.queue_ms.p50", "ms");
    ("ucd.pool.queue_ms.p99", "ms");
    ("ucd.pool.max_depth", "count");
    ("ucd.server.admit_ms.p50", "ms");
    ("ucd.server.admit_ms.p99", "ms");
    ("ucd.server.resumed", "count");
    ("ucd.server.rejected", "count");
    ("ucd.proto.encode_us", "us");
    ("ucd.proto.decode_us", "us");
    ("ucd.journal.bytes_per_job", "B");
    ("ucd.journal.records_per_job", "count");
    ("ucd.report.encode_us", "us");
    ("obs.overhead_pct", "%");
  ]

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %g" v)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let state = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "paper-figures|batch-cold|serve-mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced per-layer run");
      ("--state", Arg.Set_string state, "directory for every file the run writes");
      ("--setup-only", Arg.Set setup_only, "run the set-up only and print its time");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ucbench.exe --workload W --seed N --seconds S --trace 0|1 --state DIR";
  if !state = "" || not (Sys.file_exists !state) then (
    prerr_endline "ucbench: --state must name an existing directory";
    exit 2);
  (* TMPDIR (native builds) points inside the state directory *)
  (try Unix.mkdir (!state // "tmp") 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let state = !state and setup_only = !setup_only in
  let workload = !workload in
  let result =
    match workload with
    | "paper-figures" -> paper_figures ~seed ~seconds ~trace ~state ~setup_only
    | "batch-cold" -> batch_cold ~seed ~seconds ~trace ~setup_only
    | "serve-mixed" -> serve_mixed ~seed ~seconds ~trace ~state ~setup_only
    | w ->
        prerr_endline ("ucbench: unknown workload " ^ w);
        exit 2
  in
  match result with
  | `Setup s -> Printf.printf "{\"setup_s\": %s}\n" (json_num s)
  | (`Done | `Traced _) as r ->
      let names, got =
        match r with
        | `Done ->
            mark_rss ();
            metric "peak_rss_mb" "MB" (Option.get (Atomic.get rss_mark));
            (List.map (fun n -> (n, "")) end_to_end, !metrics)
        | `Traced sp ->
            let dir = ".perfbench-out" in
            (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            let path = dir // Printf.sprintf "%s-%d.spans.jsonl" workload seed in
            let n, dropped = Spans.write sp path in
            say "  wrote %d spans to %s (%d not kept)" n path dropped;
            (per_layer, !metrics)
      in
      List.iter (fun m -> say "  failure: %s" m) (List.rev outcome.notes);
      let fields =
        List.map
          (fun (name, unit0) ->
            let v, unit =
              match List.find_opt (fun (n, _, _) -> n = name) got with
              | Some (_, v, u) -> (v, u)
              | None -> (0., unit0)
            in
            say "  %-32s %14.6g %s" name v unit;
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          names
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (outcome.failed = 0) outcome.attempted outcome.failed
        (String.concat ", " fields)
