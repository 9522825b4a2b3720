(* Tests for the layout stage: the static prediction from the events
   Codegen records vs the real machine's meter, Layoutsel search
   quality, and the tuned-layout differential property. *)

let default_opts = Uc.Codegen.default_options

(* programs whose control flow the analyzer counts exactly *)
let static_programs =
  [
    "reductions";
    "abs_sum";
    "matmul";
    "reciprocal";
    "odd_even_flags";
    "wavefront";
    "ranksort";
    "partial_sums_seq";
    "shortest_path_n2";
    "shortest_path_n3";
    "digit_count";
    "digit_count_det";
    "stencil";
    "stencil_mapped";
    "folded_pairs";
    "folded_pairs_mapped";
    "copied_broadcast";
    "copied_broadcast_mapped";
    "heat";
    "quickstart";
  ]

let src_of name = List.assoc name Uc_programs.Programs.all_named

(* more sizes of the static generators: seq nests of 3 or fewer
   elements are unrolled, longer ones loop, and the recording must
   count both the same way *)
let static_sized =
  let module P = Uc_programs.Programs in
  [
    ("partial_sums_seq ~n:3", P.partial_sums_seq ~n:3);
    ("partial_sums_seq ~n:8", P.partial_sums_seq ~n:8);
    ("shortest_path_n3 ~n:3", P.shortest_path_n3 ~n:3 ());
    ("shortest_path_n3 ~n:9", P.shortest_path_n3 ~n:9 ());
    ("shortest_path_n2 ~n:3", P.shortest_path_n2 ~n:3 ());
    ("shortest_path_n2 ~n:4", P.shortest_path_n2 ~n:4 ());
    ("matmul ~n:3", P.matmul ~n:3);
    ("wavefront ~n:4", P.wavefront ~n:4);
    ("stencil ~n:8 ~steps:3", P.stencil ~n:8 ~steps:3 ());
    ("copied_broadcast ~n:8", P.copied_broadcast ~n:8 ~copies:2 ());
  ]

let measure ?layouts ?(options = default_opts) src =
  let prog = Uc.Compile.parse_source src in
  let compiled = Uc.Compile.lower ?layouts ~options prog in
  let t = Uc.Compile.run_compiled ~seed:42 compiled in
  Uc.Compile.meter t

(* the events recorded while lowering [src] under its own map sections *)
let summary_of src = (Uc.Compile.compile_source src).Uc.Codegen.summary

(* the static predictor's router/NEWS counts must match the machine's
   meter exactly on programs with static control flow *)
let test_predict_exact () =
  List.iter
    (fun (name, src) ->
      let summary = summary_of src in
      let p = Uc.Commpat.predict summary summary.base_layouts in
      let m = measure src in
      Alcotest.(check bool)
        (name ^ " prediction is exact")
        true p.p_exact;
      Alcotest.(check int)
        (name ^ " router ops")
        m.Cm.Cost.router_ops p.p_router_ops;
      Alcotest.(check int)
        (name ^ " news ops")
        m.Cm.Cost.news_ops p.p_news_ops)
    (List.map (fun name -> (name, src_of name)) static_programs @ static_sized)

(* a return that may run leaves everything after it estimated, not
   dropped: the par after the guarded return still costs a router op *)
let test_return_estimated () =
  let src =
    {|
#define N 8
index-set I:i = {0..N-1};
int a[N], b[N], x;

void main() {
  par (I) b[i] = i;
  x = b[3];
  if (x == 0) return;
  par (I) a[i] = b[(i * 7) % N];
}
|}
  in
  let p = Uc.Commpat.predict (summary_of src) [] in
  let m = measure src in
  Alcotest.(check int) "meter router ops" 1 m.Cm.Cost.router_ops;
  Alcotest.(check int) "predicted router ops" m.Cm.Cost.router_ops
    p.p_router_ops;
  Alcotest.(check bool) "prediction is estimated" false p.p_exact;
  (* a return in a seq nest may end it early, so its count is a bound *)
  let src =
    {|
#define N 8
index-set I:i = {0..N-1}, K:k = {0..5};
int a[N], b[N];

void main() {
  par (I) b[i] = i;
  seq (K) {
    par (I) a[i] = b[(i * 3) % N];
    if (k == 1) return;
  }
}
|}
  in
  let p = Uc.Commpat.predict (summary_of src) [] in
  Alcotest.(check int) "meter router ops in the seq" 2
    (measure src).Cm.Cost.router_ops;
  Alcotest.(check bool) "seq count is estimated" false p.p_exact

(* ---------------- layout search quality ---------------- *)

(* the a1 mapping ablation (bench/main.ml): at n=4096, steps=32 the
   hand-tuned layout is [permute (I) b[i+1] :- a[i]]; the tuner must
   find exactly that table on its own *)
let test_a1_selects_hand_tuned () =
  let src = Uc_programs.Programs.stencil ~n:4096 ~steps:32 () in
  let r = Uc.Layoutsel.search_source src in
  Alcotest.(check bool)
    "b gets permute[+1]" true
    (Uc.Mapping.equal
       (Uc.Mapping.find r.Uc.Layoutsel.table "b")
       (Uc.Mapping.Shifted [| 1 |]));
  Alcotest.(check bool)
    "a stays default" true
    (Uc.Mapping.equal (Uc.Mapping.find r.Uc.Layoutsel.table "a")
       Uc.Mapping.Default);
  Alcotest.(check bool)
    "predicted win" true
    (r.Uc.Layoutsel.chosen_ns < r.Uc.Layoutsel.default_ns)

(* the search must never predict a regression: the default table is
   always a candidate, so chosen cost <= default cost *)
let test_chosen_never_worse () =
  List.iter
    (fun name ->
      let r = Uc.Layoutsel.search_source (src_of name) in
      Alcotest.(check bool)
        (name ^ " chosen <= default")
        true
        (r.Uc.Layoutsel.chosen_ns <= r.Uc.Layoutsel.default_ns +. 1e-6))
    static_programs

(* every synthesized map section must re-parse to the table it came
   from (programs with their own map sections are skipped: the tuner's
   section would be appended next to the original one) *)
let test_emit_roundtrip () =
  List.iter
    (fun name ->
      let src = src_of name in
      let prog = Uc.Compile.parse_source src in
      let r = Uc.Layoutsel.search_source src in
      let canon = Uc.Mapping.canonical r.Uc.Layoutsel.table in
      match Uc.Mapping.emit_map_section prog canon with
      | None ->
          Alcotest.(check string)
            (name ^ " all-default table")
            "" (Uc.Mapping.table_to_string canon)
      | Some section ->
          let reparsed =
            Uc.Mapping.of_program
              (Uc.Compile.parse_source (src ^ "\n" ^ section))
          in
          Alcotest.(check string)
            (name ^ " section round-trips")
            (Uc.Mapping.table_to_string canon)
            (Uc.Mapping.table_to_string (Uc.Mapping.canonical reparsed)))
    (List.filter
       (fun n ->
         (* skip programs that already carry a map section *)
         not (String.length n > 7 && Filename.check_suffix n "_mapped"))
       static_programs)

(* ---------------- job digest plumbing ---------------- *)

(* tuned and untuned jobs must have distinct digests (they emit
   different Paris programs), and an untuned job's digest must not move
   when the [tune] field exists but is off (cache compatibility) *)
let test_tuned_digest () =
  let source = src_of "stencil" in
  let j0 = Ucd.Job.make ~name:"s" ~source () in
  let joff = Ucd.Job.make ~tune:false ~name:"s" ~source () in
  let jon = Ucd.Job.make ~tune:true ~name:"s" ~source () in
  Alcotest.(check string)
    "tune=false leaves the digest alone"
    (Ucd.Job.digest j0) (Ucd.Job.digest joff);
  Alcotest.(check bool)
    "tune=true changes the digest" true
    (Ucd.Job.digest j0 <> Ucd.Job.digest jon)

(* ---------------- tuned-layout differential fuzzing ---------------- *)

(* Random programs x random valid layouts: a layout only moves data
   around the machine, so the observable results must be bit-identical
   to the default layout on every engine.  No rand() in the generated
   programs: the per-processor draw order is layout-dependent by
   design, so random streams are excluded from the bit-identity
   property (like the engine differential tests exclude multi-site
   rand). *)

let qtest ?(count = 60) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

open QCheck2.Gen

let off_gen = oneofl [ 1; 2; 3; 5; 7 ]

let stmt_gen =
  oneof
    [
      (let* k = off_gen and* c = oneofl [ 1; 2; 5 ] in
       return (Printf.sprintf "  par (I) a[i] = b[(i + %d) %% 8] + %d;" k c));
      (let* k = off_gen in
       return
         (Printf.sprintf "  par (I) st (a[i] %% 2 == 0) b[i] = a[(i + %d) %% 8];"
            k));
      (let* k = off_gen in
       return (Printf.sprintf "  par (I) b[(i + %d) %% 8] = a[i] * 2;" k));
      return "  par (I, J) d[i][j] = a[i] + b[j] * 2;";
      (let* k = off_gen in
       return (Printf.sprintf "  par (I) a[i] = d[i][(i + %d) %% 8] + 1;" k));
      (let* k = off_gen in
       return (Printf.sprintf "  s = s + $+(I st (b[i] > %d) a[i]);" k));
      return "  seq (K) par (I) st ((i + k) % 2 == 0) a[i] = a[i] + b[i];";
      (let* c = oneofl [ 1; 2; 3 ] in
       return
         (Printf.sprintf
            "  for (t = 0; t < 2; t = t + 1) par (I) a[i] = a[i] + b[(i + 1) \
             %% 8] * %d;"
            c));
    ]

let program_gen =
  let* stmts = list_size (int_range 2 5) stmt_gen in
  return
    (Printf.sprintf
       {|
#define N 8
index-set I:i = {0..N-1}, J:j = I, K:k = {0..2};
int a[N], b[N], d[N][N], s, t;

void main() {
  par (I) { a[i] = i * 3 + 1; b[i] = 7 - i; }
  par (I, J) d[i][j] = i * 11 + j;
%s
}
|}
       (String.concat "\n" stmts))

let layout_1d =
  oneofl
    Uc.Mapping.
      [
        Default;
        Shifted [| 1 |];
        Shifted [| -1 |];
        Shifted [| 3 |];
        Folded 2;
        Folded 4;
        Copied 2;
        Copied 4;
      ]

let layout_2d =
  oneofl
    Uc.Mapping.
      [ Default; Shifted [| 1; 0 |]; Shifted [| 0; 1 |]; Shifted [| 2; -1 |] ]

let table_gen =
  let* la = layout_1d and* lb = layout_1d and* ld = layout_2d in
  return [ ("a", la); ("b", lb); ("d", ld) ]

let case_gen = pair program_gen table_gen

let print_case (src, table) =
  Printf.sprintf "table: %s\n%s" (Uc.Mapping.table_to_string table) src

let observable ?layouts ?engine src =
  let compiled = Uc.Compile.compile_source ?layouts src in
  let t = Uc.Compile.run_compiled ~seed:7 ?engine compiled in
  ( Uc.Compile.int_array t "a",
    Uc.Compile.int_array t "b",
    Uc.Compile.int_array t "d",
    Uc.Compile.scalar t "s",
    Uc.Compile.output t )

let fuzz_layout_fast =
  qtest ~count:60 ~print:print_case
    "fuzz: any valid layout is observably identical (fast)" case_gen
    (fun (src, table) ->
      observable src = observable ~layouts:table src)

let fuzz_layout_native =
  qtest ~count:12 ~print:print_case
    "fuzz: any valid layout is observably identical (native)" case_gen
    (fun (src, table) ->
      observable src = observable ~layouts:table ~engine:`Native src)

(* Layoutsel scores candidates by re-classifying the events of one
   default lowering: wherever that prediction claims to be exact under
   a table, it must equal the meter of the lowering under that table *)
let fuzz_reclassify =
  qtest ~count:100 ~print:print_case
    "fuzz: re-classified prediction matches the meter" case_gen
    (fun (src, table) ->
      let p = Uc.Commpat.predict (summary_of src) table in
      (not p.p_exact)
      ||
      let m = measure ~layouts:table src in
      m.Cm.Cost.router_ops = p.p_router_ops && m.Cm.Cost.news_ops = p.p_news_ops)

(* the same property through the tuner itself: a tuned lowering of any
   generated program matches the default lowering bit for bit *)
let fuzz_tuned_run =
  qtest ~count:40 ~print:(fun s -> s)
    "fuzz: auto-tuned layout is observably identical" program_gen
    (fun src ->
      let r = Uc.Layoutsel.search_source src in
      observable src = observable ~layouts:r.Uc.Layoutsel.table src)

let () =
  Alcotest.run "tune"
    [
      ( "commpat",
        [
          Alcotest.test_case "predict-exact" `Quick test_predict_exact;
          Alcotest.test_case "return leaves later counts estimated" `Quick
            test_return_estimated;
        ] );
      ( "layoutsel",
        [
          Alcotest.test_case "a1 selects hand-tuned layout" `Quick
            test_a1_selects_hand_tuned;
          Alcotest.test_case "chosen never worse than default" `Quick
            test_chosen_never_worse;
          Alcotest.test_case "emitted map sections round-trip" `Quick
            test_emit_roundtrip;
        ] );
      ("job", [ Alcotest.test_case "tuned digest" `Quick test_tuned_digest ]);
      ( "differential",
        [ fuzz_layout_fast; fuzz_layout_native; fuzz_reclassify; fuzz_tuned_run ] );
    ]
