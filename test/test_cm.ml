(* Tests for the Connection Machine simulator substrate. *)

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------- Geometry ---------------- *)

let test_geometry_basic () =
  let g = Cm.Geometry.create [ 3; 4; 5 ] in
  check Alcotest.int "size" 60 (Cm.Geometry.size g);
  check Alcotest.int "rank" 3 (Cm.Geometry.rank g);
  check (Alcotest.list Alcotest.int) "dims" [ 3; 4; 5 ] (Cm.Geometry.dims g);
  check Alcotest.int "dim 1" 4 (Cm.Geometry.dim g 1);
  check (Alcotest.array Alcotest.int) "strides" [| 20; 5; 1 |]
    (Cm.Geometry.strides g)

let test_geometry_linearize () =
  let g = Cm.Geometry.create [ 3; 4 ] in
  check Alcotest.int "origin" 0 (Cm.Geometry.linearize g [| 0; 0 |]);
  check Alcotest.int "last" 11 (Cm.Geometry.linearize g [| 2; 3 |]);
  check Alcotest.int "row-major" 5 (Cm.Geometry.linearize g [| 1; 1 |])

let test_geometry_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Geometry.create: empty dimension list")
    (fun () -> ignore (Cm.Geometry.create []));
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Geometry.create: non-positive extent") (fun () ->
      ignore (Cm.Geometry.create [ 2; 0 ]));
  let g = Cm.Geometry.create [ 2; 2 ] in
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Geometry.linearize: rank mismatch") (fun () ->
      ignore (Cm.Geometry.linearize g [| 1 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Geometry.linearize: coordinate out of range") (fun () ->
      ignore (Cm.Geometry.linearize g [| 0; 2 |]))

let test_geometry_prefix () =
  let outer = Cm.Geometry.create [ 3; 4 ] in
  let whole = Cm.Geometry.create [ 3; 4; 7 ] in
  check Alcotest.bool "prefix" true (Cm.Geometry.is_prefix_of outer whole);
  check Alcotest.bool "not prefix" false
    (Cm.Geometry.is_prefix_of (Cm.Geometry.create [ 4; 3 ]) whole);
  check Alcotest.bool "concat" true
    (Cm.Geometry.equal whole
       (Cm.Geometry.concat outer (Cm.Geometry.create [ 7 ])))

let geometry_roundtrip =
  qtest "geometry: coords/linearize round-trip"
    QCheck2.Gen.(
      let* dims = list_size (int_range 1 4) (int_range 1 6) in
      let g = Cm.Geometry.create dims in
      let* addr = int_range 0 (Cm.Geometry.size g - 1) in
      return (dims, addr))
    (fun (dims, addr) ->
      let g = Cm.Geometry.create dims in
      Cm.Geometry.linearize g (Cm.Geometry.coords g addr) = addr)

(* ---------------- Scan ---------------- *)

let test_scan_inclusive () =
  check (Alcotest.array Alcotest.int) "sum" [| 1; 3; 6; 10 |]
    (Cm.Scan.inclusive ( + ) [| 1; 2; 3; 4 |]);
  check (Alcotest.array Alcotest.int) "empty" [||] (Cm.Scan.inclusive ( + ) [||])

let test_scan_exclusive () =
  check (Alcotest.array Alcotest.int) "sum" [| 0; 1; 3; 6 |]
    (Cm.Scan.exclusive ( + ) 0 [| 1; 2; 3; 4 |]);
  check (Alcotest.array Alcotest.int) "max" [| min_int; 5; 5; 9 |]
    (Cm.Scan.exclusive max min_int [| 5; 2; 9; 1 |])

let test_masked_reduce () =
  let a = [| 3; 1; 4; 1; 5 |] in
  check Alcotest.int "all" 14
    (Cm.Scan.masked_reduce ( + ) 0 [| true; true; true; true; true |] a);
  check Alcotest.int "some" 7
    (Cm.Scan.masked_reduce ( + ) 0 [| true; false; true; false; false |] a);
  check Alcotest.int "none is identity" 0
    (Cm.Scan.masked_reduce ( + ) 0 (Array.make 5 false) a)

let test_reduce_trailing_axes () =
  (* 2x3 field: rows [1 2 3] [4 5 6]; reduce the trailing axis. *)
  let g = Cm.Geometry.create [ 2; 3 ] in
  let mask = Array.make 6 true in
  let sums =
    Cm.Scan.reduce_trailing_axes g ~outer_size:2 ( + ) 0 mask
      [| 1; 2; 3; 4; 5; 6 |]
  in
  check (Alcotest.array Alcotest.int) "row sums" [| 6; 15 |] sums;
  mask.(4) <- false;
  let sums =
    Cm.Scan.reduce_trailing_axes g ~outer_size:2 ( + ) 0 mask
      [| 1; 2; 3; 4; 5; 6 |]
  in
  check (Alcotest.array Alcotest.int) "masked row sums" [| 6; 10 |] sums

let test_scan_axis () =
  let g = Cm.Geometry.create [ 2; 3 ] in
  let a = [| 1; 2; 3; 4; 5; 6 |] in
  check (Alcotest.array Alcotest.int) "axis 1 (rows)" [| 1; 3; 6; 4; 9; 15 |]
    (Cm.Scan.scan_axis g 1 ( + ) a);
  check (Alcotest.array Alcotest.int) "axis 0 (cols)" [| 1; 2; 3; 5; 7; 9 |]
    (Cm.Scan.scan_axis g 0 ( + ) a)

let scan_matches_fold =
  qtest "scan: inclusive last element equals fold"
    QCheck2.Gen.(array_size (int_range 1 50) (int_range (-100) 100))
    (fun a ->
      let s = Cm.Scan.inclusive ( + ) a in
      s.(Array.length a - 1) = Array.fold_left ( + ) 0 a)

let scan_axis_independent_lanes =
  qtest "scan: axis scan of a 1-row geometry equals flat scan"
    QCheck2.Gen.(array_size (int_range 1 30) (int_range (-50) 50))
    (fun a ->
      let g = Cm.Geometry.create [ 1; Array.length a ] in
      Cm.Scan.scan_axis g 1 ( + ) a = Cm.Scan.inclusive ( + ) a)

(* ---------------- News ---------------- *)

let test_news_shift () =
  let g = Cm.Geometry.create [ 4 ] in
  let src = [| 10; 20; 30; 40 |] in
  let dst = [| 0; 0; 0; 0 |] in
  Cm.News.shift g ~axis:0 ~delta:1 ~lo:0 ~hi:4 src dst;
  (* element 3 has no +1 neighbour: keeps its old value *)
  check (Alcotest.array Alcotest.int) "shift +1" [| 20; 30; 40; 0 |] dst;
  (* a sub-range writes only its own destinations *)
  let dst = [| 0; 0; 0; 0 |] in
  Cm.News.shift g ~axis:0 ~delta:1 ~lo:1 ~hi:3 src dst;
  check (Alcotest.array Alcotest.int) "shift +1 on [1, 3)" [| 0; 30; 40; 0 |]
    dst

let test_news_shift_negative () =
  let g = Cm.Geometry.create [ 4 ] in
  let src = [| 10; 20; 30; 40 |] in
  let dst = [| -1; -1; -1; -1 |] in
  Cm.News.shift g ~axis:0 ~delta:(-1) ~lo:0 ~hi:4 src dst;
  check (Alcotest.array Alcotest.int) "shift -1" [| -1; 10; 20; 30 |] dst;
  (* in place, the ascending walk reads what it already wrote *)
  let a = [| 10; 20; 30; 40 |] in
  Cm.News.shift g ~axis:0 ~delta:(-1) ~lo:0 ~hi:4 a a;
  check (Alcotest.array Alcotest.int) "in-place shift -1" [| 10; 10; 10; 10 |]
    a

let test_news_2d_axis () =
  let g = Cm.Geometry.create [ 2; 3 ] in
  let src = [| 1; 2; 3; 4; 5; 6 |] in
  let dst = Array.make 6 0 in
  Cm.News.shift g ~axis:0 ~delta:1 ~lo:0 ~hi:6 src dst;
  (* row 0 receives row 1; row 1 keeps old *)
  check (Alcotest.array Alcotest.int) "axis 0" [| 4; 5; 6; 0; 0; 0 |] dst;
  (* a range cutting both axis-1 rows mid-segment *)
  let dst = Array.make 6 0 in
  Cm.News.shift g ~axis:1 ~delta:1 ~lo:1 ~hi:5 src dst;
  check (Alcotest.array Alcotest.int) "axis 1 on [1, 5)" [| 0; 3; 0; 5; 6; 0 |]
    dst

let test_news_masked () =
  let g = Cm.Geometry.create [ 4 ] in
  let src = [| 10; 20; 30; 40 |] in
  let dst = [| 0; 0; 0; 0 |] in
  let mask = [| true; false; true; false |] in
  Cm.News.shift_masked g ~axis:0 ~delta:1 ~mask ~lo:0 ~hi:4 src dst;
  check (Alcotest.array Alcotest.int) "masked" [| 20; 0; 40; 0 |] dst;
  let dst = [| 0; 0; 0; 0 |] in
  Cm.News.shift_masked g ~axis:0 ~delta:1 ~mask ~lo:1 ~hi:4 src dst;
  check (Alcotest.array Alcotest.int) "masked on [1, 4)" [| 0; 0; 40; 0 |] dst;
  (* in place with delta -1: element 2 reads the 10 just written to 1 *)
  let a = [| 10; 20; 30; 40 |] in
  Cm.News.shift_masked g ~axis:0 ~delta:(-1) ~mask:[| true; true; true; false |]
    ~lo:0 ~hi:4 a a;
  check (Alcotest.array Alcotest.int) "masked in-place shift -1"
    [| 10; 10; 10; 40 |] a

(* ---------------- Router ---------------- *)

let test_router_get () =
  let src = [| 10; 20; 30 |] in
  let dst = [| 0; 0; 0 |] in
  let addr = [| 2; 0; 1 |] in
  let stats =
    Cm.Router.get ~mask:[| true; true; true |] ~addr ~src ~dst ()
  in
  check (Alcotest.array Alcotest.int) "permuted" [| 30; 10; 20 |] dst;
  check Alcotest.int "messages" 3 stats.Cm.Router.messages;
  check Alcotest.int "fanin" 1 stats.Cm.Router.max_fanin

let test_router_get_fanin () =
  let src = [| 7; 8 |] in
  let dst = [| 0; 0; 0; 0 |] in
  let addr = [| 0; 0; 0; 1 |] in
  let stats = Cm.Router.get ~mask:(Array.make 4 true) ~addr ~src ~dst () in
  check Alcotest.int "fanin" 3 stats.Cm.Router.max_fanin;
  check (Alcotest.array Alcotest.int) "broadcast" [| 7; 7; 7; 8 |] dst

let test_router_send_check_ok () =
  let dst = [| 0; 0; 0 |] in
  let stats =
    Cm.Router.send
      ~mask:[| true; true; true |]
      ~addr:[| 1; 1; 0 |]
      ~src:[| 5; 5; 9 |]
      ~dst
      ~combine:(Cm.Router.Overwrite_check ( = ))
      ()
  in
  check (Alcotest.array Alcotest.int) "identical values ok" [| 9; 5; 0 |] dst;
  check Alcotest.int "fanin" 2 stats.Cm.Router.max_fanin

let test_router_send_conflict () =
  let dst = [| 0 |] in
  Alcotest.check_raises "conflict" (Cm.Router.Conflict 0) (fun () ->
      ignore
        (Cm.Router.send
           ~mask:[| true; true |]
           ~addr:[| 0; 0 |]
           ~src:[| 1; 2 |]
           ~dst
           ~combine:(Cm.Router.Overwrite_check ( = ))
           ()))

let test_router_send_combining () =
  let dst = [| 0; 0 |] in
  ignore
    (Cm.Router.send
       ~mask:(Array.make 4 true)
       ~addr:[| 0; 0; 1; 0 |]
       ~src:[| 1; 2; 5; 4 |]
       ~dst
       ~combine:(Cm.Router.Combine ( + ))
       ());
  (* combining send replaces dst with the combined arrivals *)
  check (Alcotest.array Alcotest.int) "sums" [| 7; 5 |] dst

let test_router_send_min () =
  let dst = [| 100 |] in
  ignore
    (Cm.Router.send
       ~mask:(Array.make 3 true)
       ~addr:[| 0; 0; 0 |]
       ~src:[| 9; 3; 7 |]
       ~dst
       ~combine:(Cm.Router.Combine min)
       ());
  check (Alcotest.array Alcotest.int) "min of arrivals" [| 3 |] dst

let test_router_mask () =
  let dst = [| 0; 0 |] in
  let stats =
    Cm.Router.send
      ~mask:[| false; true |]
      ~addr:[| 0; 1 |]
      ~src:[| 8; 9 |]
      ~dst
      ~combine:(Cm.Router.Combine ( + ))
      ()
  in
  check (Alcotest.array Alcotest.int) "inactive skipped" [| 0; 9 |] dst;
  check Alcotest.int "messages" 1 stats.Cm.Router.messages

let router_get_is_permutation =
  qtest "router: get with identity addresses copies src"
    QCheck2.Gen.(array_size (int_range 1 40) (int_range 0 1000))
    (fun src ->
      let n = Array.length src in
      let dst = Array.make n (-1) in
      let addr = Array.init n (fun i -> i) in
      ignore (Cm.Router.get ~mask:(Array.make n true) ~addr ~src ~dst ());
      dst = src)

(* a reused epoch-tagged scratch must behave exactly like a fresh one,
   across calls of different sizes *)
let router_scratch_reuse =
  qtest "router: reused scratch matches fresh scratch"
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (array_size (int_range 1 30) (int_range 0 1000)))
    (fun srcs ->
      let scratch = Cm.Router.scratch () in
      List.for_all
        (fun src ->
          let n = Array.length src in
          let addr = Array.map (fun v -> v mod n) src in
          let mask = Array.map (fun v -> v mod 3 <> 0) src in
          let run ?scratch () =
            let dst = Array.make n 0 in
            let stats =
              Cm.Router.send ?scratch ~mask ~addr ~src ~dst
                ~combine:(Cm.Router.Combine ( + )) ()
            in
            let dst2 = Array.make n (-1) in
            let stats2 = Cm.Router.get ?scratch ~mask ~addr ~src ~dst:dst2 () in
            (dst, stats, dst2, stats2)
          in
          run ~scratch () = run ())
        srcs)

(* ---------------- Context ---------------- *)

let test_context_stack () =
  let c = Cm.Context.create 4 in
  check Alcotest.int "all active" 4 (Cm.Context.count_active c);
  Cm.Context.push c;
  Cm.Context.land_mask c [| true; false; true; false |];
  check Alcotest.int "two active" 2 (Cm.Context.count_active c);
  Cm.Context.push c;
  Cm.Context.land_mask c [| true; true; false; false |];
  check Alcotest.int "nested" 1 (Cm.Context.count_active c);
  check Alcotest.bool "vp0 active" true (Cm.Context.is_active c 0);
  check Alcotest.bool "vp2 masked" false (Cm.Context.is_active c 2);
  Cm.Context.pop c;
  check Alcotest.int "restored" 2 (Cm.Context.count_active c);
  Cm.Context.pop c;
  check Alcotest.int "base" 4 (Cm.Context.count_active c)

let test_context_pop_base () =
  let c = Cm.Context.create 2 in
  Alcotest.check_raises "base pop" (Failure "Context.pop: base context")
    (fun () -> Cm.Context.pop c)

let test_context_reset () =
  let c = Cm.Context.create 3 in
  Cm.Context.push c;
  Cm.Context.land_mask c [| false; false; false |];
  Cm.Context.reset c;
  check Alcotest.int "depth" 1 (Cm.Context.depth c);
  check Alcotest.int "active" 3 (Cm.Context.count_active c)

(* depth, count_active and all_active are cached (O(1)); cross-check the
   cache against a recount of the flags through every transition *)
let test_context_cached_counts () =
  let c = Cm.Context.create 5 in
  let recount () =
    Array.fold_left (fun n f -> if f then n + 1 else n) 0 (Cm.Context.active c)
  in
  let agree what =
    check Alcotest.int what (recount ()) (Cm.Context.count_active c);
    check Alcotest.bool (what ^ " all_active")
      (recount () = 5)
      (Cm.Context.all_active c)
  in
  agree "fresh";
  check Alcotest.int "depth 1" 1 (Cm.Context.depth c);
  Cm.Context.push c;
  Cm.Context.land_ints c [| 1; 0; 3; 0; -2 |];
  agree "after land_ints";
  check Alcotest.int "depth 2" 2 (Cm.Context.depth c);
  Cm.Context.push c;
  Cm.Context.land_floats c [| 0.5; 1.0; 0.0; 2.0; 0.0 |];
  agree "after land_floats";
  check Alcotest.int "depth 3" 3 (Cm.Context.depth c);
  Cm.Context.land_mask c [| true; true; true; false; true |];
  agree "after land_mask";
  Cm.Context.pop c;
  agree "after pop";
  check Alcotest.int "depth back to 2" 2 (Cm.Context.depth c);
  Cm.Context.pop c;
  agree "back to base";
  check Alcotest.bool "base all_active" true (Cm.Context.all_active c);
  Cm.Context.push c;
  Cm.Context.land_ints c [| 1; 1; 1; 1; 1 |];
  check Alcotest.bool "still all_active" true (Cm.Context.all_active c);
  Cm.Context.reset c;
  agree "after reset";
  check Alcotest.int "depth after reset" 1 (Cm.Context.depth c)

let test_context_land_size_mismatch () =
  let c = Cm.Context.create 3 in
  Alcotest.check_raises "land_mask"
    (Invalid_argument "Context.land_mask: size mismatch") (fun () ->
      Cm.Context.land_mask c [| true |]);
  Alcotest.check_raises "land_ints"
    (Invalid_argument "Context.land_ints: size mismatch") (fun () ->
      Cm.Context.land_ints c [| 1 |]);
  Alcotest.check_raises "land_floats"
    (Invalid_argument "Context.land_floats: size mismatch") (fun () ->
      Cm.Context.land_floats c [| 1.0 |])

(* ---------------- Cost ---------------- *)

let test_vp_ratio () =
  let p = Cm.Cost.cm2_16k in
  check Alcotest.int "small" 1 (Cm.Cost.vp_ratio p 100);
  check Alcotest.int "exact" 1 (Cm.Cost.vp_ratio p 16384);
  check Alcotest.int "one more" 2 (Cm.Cost.vp_ratio p 16385);
  check Alcotest.int "4x" 4 (Cm.Cost.vp_ratio p (16384 * 4))

let test_cost_accumulates () =
  let m = Cm.Cost.meter Cm.Cost.cm2_16k in
  check (Alcotest.float 0.0) "zero" 0.0 (Cm.Cost.elapsed_seconds m);
  Cm.Cost.charge_pe m ~size:100;
  let t1 = Cm.Cost.elapsed_seconds m in
  check Alcotest.bool "positive" true (t1 > 0.0);
  Cm.Cost.charge_router m ~size:100 ~messages:100 ~max_fanin:1;
  let t2 = Cm.Cost.elapsed_seconds m in
  check Alcotest.bool "monotone" true (t2 > t1);
  check Alcotest.int "pe counted" 1 m.Cm.Cost.pe_ops;
  check Alcotest.int "router counted" 1 m.Cm.Cost.router_ops;
  check Alcotest.int "messages counted" 100 m.Cm.Cost.router_messages

let test_cost_router_dearer_than_news () =
  let a = Cm.Cost.meter Cm.Cost.cm2_16k in
  let b = Cm.Cost.meter Cm.Cost.cm2_16k in
  Cm.Cost.charge_router a ~size:1000 ~messages:1000 ~max_fanin:1;
  Cm.Cost.charge_news b ~size:1000;
  check Alcotest.bool "router > news" true
    (Cm.Cost.elapsed_seconds a > Cm.Cost.elapsed_seconds b)

let test_cost_congestion () =
  let a = Cm.Cost.meter Cm.Cost.cm2_16k in
  let b = Cm.Cost.meter Cm.Cost.cm2_16k in
  Cm.Cost.charge_router a ~size:1000 ~messages:1000 ~max_fanin:1;
  Cm.Cost.charge_router b ~size:1000 ~messages:1000 ~max_fanin:64;
  check Alcotest.bool "congested dearer" true
    (Cm.Cost.elapsed_seconds b > Cm.Cost.elapsed_seconds a)

let test_cost_vp_ratio_scales () =
  let a = Cm.Cost.meter Cm.Cost.cm2_16k in
  let b = Cm.Cost.meter Cm.Cost.cm2_16k in
  Cm.Cost.charge_pe a ~size:16384;
  Cm.Cost.charge_pe b ~size:(16384 * 8);
  check Alcotest.bool "8x vps dearer" true
    (Cm.Cost.elapsed_seconds b > Cm.Cost.elapsed_seconds a)

(* ---------------- Machine ---------------- *)

open Cm.Paris

let build f =
  let b = Builder.create "test" in
  let r = f b in
  (Builder.finish b, r)

let run_prog prog =
  let m = Cm.Machine.create prog in
  Cm.Machine.run m;
  m

let test_machine_sum_of_coords () =
  (* sum over a 1-D set of its own coordinates: 0+1+...+9 = 45 *)
  let prog, (reg, _) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 10 ]) in
        let f = Builder.field b ~vpset:vp KInt in
        let r = Builder.reg b in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pcoord (f, 0));
        Builder.emit b (Preduce (Add, r, f));
        (r, f))
  in
  let m = run_prog prog in
  check Alcotest.int "sum" 45 (Cm.Machine.reg_int m reg)

let test_machine_masked_ops () =
  (* set odd elements to 0 and others to 1 (paper example, section 3.4) *)
  let prog, f =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 6 ]) in
        let coord = Builder.field b ~vpset:vp KInt in
        let pred = Builder.field b ~vpset:vp KInt in
        let a = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pcoord (coord, 0));
        Builder.emit b (Pbin (Mod, pred, Fld coord, Imm (SInt 2)));
        Builder.emit b Cpush;
        Builder.emit b (Cand pred);
        Builder.emit b (Pmov (a, Imm (SInt 0)));
        Builder.emit b Cpop;
        Builder.emit b (Punop (Lnot, pred, Fld pred));
        Builder.emit b Cpush;
        Builder.emit b (Cand pred);
        Builder.emit b (Pmov (a, Imm (SInt 1)));
        Builder.emit b Cpop;
        a)
  in
  let m = run_prog prog in
  check (Alcotest.array Alcotest.int) "odd zeroed" [| 1; 0; 1; 0; 1; 0 |]
    (Cm.Machine.field_ints m f)

let test_machine_get_send () =
  (* reverse an array with a router get *)
  let prog, (a, rev) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 5 ]) in
        let a = Builder.field b ~vpset:vp KInt in
        let addr = Builder.field b ~vpset:vp KInt in
        let rev = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pcoord (addr, 0));
        Builder.emit b (Pbin (Sub, addr, Imm (SInt 4), Fld addr));
        Builder.emit b (Pget (rev, a, addr));
        (a, rev))
  in
  let m = Cm.Machine.create prog in
  Cm.Machine.set_field_ints m a [| 1; 2; 3; 4; 5 |];
  Cm.Machine.run m;
  check (Alcotest.array Alcotest.int) "reversed" [| 5; 4; 3; 2; 1 |]
    (Cm.Machine.field_ints m rev)

let test_machine_send_conflict () =
  (* all elements write distinct values to address 0: must fail *)
  let prog, _ =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 4 ]) in
        let src = Builder.field b ~vpset:vp KInt in
        let addr = Builder.field b ~vpset:vp KInt in
        let dst = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pcoord (src, 0));
        Builder.emit b (Pmov (addr, Imm (SInt 0)));
        Builder.emit b (Psend (dst, src, addr, Ccheck));
        ())
  in
  let m = Cm.Machine.create prog in
  (try
     Cm.Machine.run m;
     Alcotest.fail "expected a conflict"
   with Cm.Machine.Error msg ->
     check Alcotest.bool "mentions conflict" true
       (String.length msg > 0
       && String.sub msg 0 28 = "parallel assignment conflict"))

let test_machine_loop () =
  (* front-end loop: r := 2^10 by repeated doubling *)
  let prog, r =
    build (fun b ->
        let r = Builder.reg b in
        let i = Builder.reg b in
        let t = Builder.reg b in
        let top = Builder.label b in
        let done_ = Builder.label b in
        Builder.emit b (Fmov (r, Imm (SInt 1)));
        Builder.emit b (Fmov (i, Imm (SInt 0)));
        Builder.place b top;
        Builder.emit b (Fbin (Ge, t, Reg i, Imm (SInt 10)));
        Builder.emit b (Jnz (Reg t, done_));
        Builder.emit b (Fbin (Mul, r, Reg r, Imm (SInt 2)));
        Builder.emit b (Fbin (Add, i, Reg i, Imm (SInt 1)));
        Builder.emit b (Jmp top);
        Builder.place b done_;
        r)
  in
  let m = run_prog prog in
  check Alcotest.int "2^10" 1024 (Cm.Machine.reg_int m r)

let test_machine_fuel () =
  let prog, _ =
    build (fun b ->
        let top = Builder.label b in
        Builder.place b top;
        Builder.emit b (Jmp top);
        ())
  in
  let m = Cm.Machine.create ~fuel:1000 prog in
  (try
     Cm.Machine.run m;
     Alcotest.fail "expected fuel exhaustion"
   with Cm.Machine.Error msg ->
     check Alcotest.bool "mentions fuel" true
       (String.length msg >= 4 && String.sub msg 0 4 = "fuel"))

let test_machine_reduce_axis () =
  (* 3x4 products: row minima *)
  let prog, (src, dst) =
    build (fun b ->
        let outer = Builder.vpset b (Cm.Geometry.create [ 3 ]) in
        let whole = Builder.vpset b (Cm.Geometry.create [ 3; 4 ]) in
        let src = Builder.field b ~vpset:whole KInt in
        let dst = Builder.field b ~vpset:outer KInt in
        Builder.emit b (Cwith whole);
        Builder.emit b (Preduce_axis (Min, dst, src));
        (src, dst))
  in
  let m = Cm.Machine.create prog in
  Cm.Machine.set_field_ints m src [| 5; 2; 8; 4; 1; 9; 3; 7; 6; 6; 6; 0 |];
  Cm.Machine.run m;
  check (Alcotest.array Alcotest.int) "row minima" [| 2; 1; 0 |]
    (Cm.Machine.field_ints m dst)

let test_machine_reduce_axis_identity () =
  (* with a fully masked context, the reduction returns identities *)
  let prog, (zero_field, dst) =
    build (fun b ->
        let outer = Builder.vpset b (Cm.Geometry.create [ 2 ]) in
        let whole = Builder.vpset b (Cm.Geometry.create [ 2; 3 ]) in
        let src = Builder.field b ~vpset:whole KInt in
        let zero = Builder.field b ~vpset:whole KInt in
        let dst = Builder.field b ~vpset:outer KInt in
        Builder.emit b (Cwith whole);
        Builder.emit b (Pmov (zero, Imm (SInt 0)));
        Builder.emit b Cpush;
        Builder.emit b (Cand zero);
        Builder.emit b (Preduce_axis (Min, dst, src));
        Builder.emit b Cpop;
        (zero, dst))
  in
  let m = run_prog prog in
  check (Alcotest.array Alcotest.int) "identity INF"
    [| inf_int; inf_int |]
    (Cm.Machine.field_ints m dst)

let test_machine_any_reduce () =
  let prog, (pred, vals, r) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 5 ]) in
        let pred = Builder.field b ~vpset:vp KInt in
        let vals = Builder.field b ~vpset:vp KInt in
        let r = Builder.reg b in
        Builder.emit b (Cwith vp);
        Builder.emit b Cpush;
        Builder.emit b (Cand pred);
        Builder.emit b (Preduce (Any, r, vals));
        Builder.emit b Cpop;
        (pred, vals, r))
  in
  let m = Cm.Machine.create prog in
  Cm.Machine.set_field_ints m pred [| 0; 0; 1; 0; 1 |];
  Cm.Machine.set_field_ints m vals [| 9; 8; 7; 6; 5 |];
  Cm.Machine.run m;
  let v = Cm.Machine.reg_int m r in
  check Alcotest.bool "one of the enabled" true (v = 7 || v = 5)

let test_machine_any_reduce_empty () =
  let prog, (pred, vals, r) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 3 ]) in
        let pred = Builder.field b ~vpset:vp KInt in
        let vals = Builder.field b ~vpset:vp KInt in
        let r = Builder.reg b in
        Builder.emit b (Cwith vp);
        Builder.emit b Cpush;
        Builder.emit b (Cand pred);
        Builder.emit b (Preduce (Any, r, vals));
        Builder.emit b Cpop;
        (pred, vals, r))
  in
  let m = run_prog prog in
  check Alcotest.int "identity INF" inf_int (Cm.Machine.reg_int m r)

let test_machine_float_ops () =
  let prog, (f, r) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 4 ]) in
        let c = Builder.field b ~vpset:vp KInt in
        let f = Builder.field b ~vpset:vp KFloat in
        let r = Builder.reg b in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pcoord (c, 0));
        Builder.emit b (Punop (ToFloat, f, Fld c));
        Builder.emit b (Pbin (Add, f, Fld f, Imm (SFloat 0.5)));
        Builder.emit b (Preduce (Add, r, f));
        (f, r))
  in
  let m = run_prog prog in
  check (Alcotest.float 1e-9) "0.5+1.5+2.5+3.5" 8.0 (Cm.Machine.reg_float m r);
  check (Alcotest.float 1e-9) "element" 2.5 (Cm.Machine.field_floats m f).(2)

let test_machine_news () =
  let prog, (a, sh) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 5 ]) in
        let a = Builder.field b ~vpset:vp KInt in
        let sh = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pmov (sh, Imm (SInt (-1))));
        Builder.emit b (Pnews (sh, a, 0, 1));
        (a, sh))
  in
  let m = Cm.Machine.create prog in
  Cm.Machine.set_field_ints m a [| 1; 2; 3; 4; 5 |];
  Cm.Machine.run m;
  check (Alcotest.array Alcotest.int) "border keeps old" [| 2; 3; 4; 5; -1 |]
    (Cm.Machine.field_ints m sh)

let test_machine_requires_with () =
  let prog, _ =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 2 ]) in
        let f = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Pmov (f, Imm (SInt 1)));
        ())
  in
  let m = Cm.Machine.create prog in
  (try
     Cm.Machine.run m;
     Alcotest.fail "expected missing-Cwith error"
   with Cm.Machine.Error _ -> ())

let test_machine_div_by_zero () =
  let prog, _ =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 2 ]) in
        let f = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pbin (Div, f, Imm (SInt 1), Fld f));
        ())
  in
  (try
     ignore (run_prog prog);
     Alcotest.fail "expected division by zero"
   with Cm.Machine.Error msg ->
     check Alcotest.string "msg" "division by zero" msg)

let test_machine_deterministic_rand () =
  let mk () =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 8 ]) in
        let f = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Prand (f, Imm (SInt 100)));
        f)
  in
  let p1, f1 = mk () and p2, f2 = mk () in
  let m1 = Cm.Machine.create ~seed:7 p1 and m2 = Cm.Machine.create ~seed:7 p2 in
  Cm.Machine.run m1;
  Cm.Machine.run m2;
  check (Alcotest.array Alcotest.int) "same seed same values"
    (Cm.Machine.field_ints m1 f1) (Cm.Machine.field_ints m2 f2);
  let m3 = Cm.Machine.create ~seed:8 p1 in
  Cm.Machine.run m3;
  check Alcotest.bool "different seed differs" true
    (Cm.Machine.field_ints m3 f1 <> Cm.Machine.field_ints m1 f1);
  Array.iter
    (fun v -> check Alcotest.bool "in range" true (v >= 0 && v < 100))
    (Cm.Machine.field_ints m1 f1)

let test_machine_fe_read_write () =
  let prog, (f, r) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 4 ]) in
        let f = Builder.field b ~vpset:vp KInt in
        let r = Builder.reg b in
        Builder.emit b (Fwrite (f, Imm (SInt 2), Imm (SInt 42)));
        Builder.emit b (Fread (r, f, Imm (SInt 2)));
        (f, r))
  in
  let m = run_prog prog in
  check Alcotest.int "round trip" 42 (Cm.Machine.reg_int m r);
  check (Alcotest.array Alcotest.int) "only one written" [| 0; 0; 42; 0 |]
    (Cm.Machine.field_ints m f)

let test_machine_psel () =
  let prog, d =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 4 ]) in
        let c = Builder.field b ~vpset:vp KInt in
        let d = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pcoord (c, 0));
        Builder.emit b (Pbin (Ge, c, Fld c, Imm (SInt 2)));
        Builder.emit b (Psel (d, Fld c, Imm (SInt 100), Imm (SInt 200)));
        d)
  in
  let m = run_prog prog in
  check (Alcotest.array Alcotest.int) "select" [| 200; 200; 100; 100 |]
    (Cm.Machine.field_ints m d)

let test_machine_scan_instr () =
  let prog, (src, dst) =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 5 ]) in
        let src = Builder.field b ~vpset:vp KInt in
        let dst = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pscan (Add, dst, src, 0));
        (src, dst))
  in
  let m = Cm.Machine.create prog in
  Cm.Machine.set_field_ints m src [| 1; 2; 3; 4; 5 |];
  Cm.Machine.run m;
  check (Alcotest.array Alcotest.int) "prefix sums" [| 1; 3; 6; 10; 15 |]
    (Cm.Machine.field_ints m dst)

let test_machine_elapsed_monotone () =
  let prog, _ =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 100 ]) in
        let f = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        for _ = 1 to 10 do
          Builder.emit b (Pbin (Add, f, Fld f, Imm (SInt 1)))
        done;
        ())
  in
  let m = run_prog prog in
  check Alcotest.bool "time advanced" true (Cm.Machine.elapsed_seconds m > 0.0);
  check Alcotest.int "10 pe ops" 10 (Cm.Machine.meter m).Cm.Cost.pe_ops

let test_paris_identity () =
  check Alcotest.bool "add int" true (identity Add KInt = SInt 0);
  check Alcotest.bool "min int" true (identity Min KInt = SInt inf_int);
  check Alcotest.bool "max int" true (identity Max KInt = SInt (-inf_int));
  check Alcotest.bool "mul int" true (identity Mul KInt = SInt 1);
  check Alcotest.bool "land" true (identity Land KInt = SInt 1);
  check Alcotest.bool "lor" true (identity Lor KInt = SInt 0);
  check Alcotest.bool "min float" true (identity Min KFloat = SFloat infinity);
  Alcotest.check_raises "sub not reducible"
    (Invalid_argument "Paris.identity: operator is not reducible at this kind")
    (fun () -> ignore (identity Sub KInt))

let test_paris_pp () =
  let prog, _ =
    build (fun b ->
        let vp = Builder.vpset b (Cm.Geometry.create [ 2 ]) in
        let f = Builder.field b ~vpset:vp KInt in
        Builder.emit b (Cwith vp);
        Builder.emit b (Pmov (f, Imm (SInt 3)));
        ())
  in
  let s = Format.asprintf "%a" pp_program prog in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions vpset" true (contains s "vp0");
  check Alcotest.bool "mentions pmov" true (contains s "pmov")

let () =
  Alcotest.run "cm"
    [
      ( "geometry",
        [
          Alcotest.test_case "basic" `Quick test_geometry_basic;
          Alcotest.test_case "linearize" `Quick test_geometry_linearize;
          Alcotest.test_case "errors" `Quick test_geometry_errors;
          Alcotest.test_case "prefix/concat" `Quick test_geometry_prefix;
          geometry_roundtrip;
        ] );
      ( "scan",
        [
          Alcotest.test_case "inclusive" `Quick test_scan_inclusive;
          Alcotest.test_case "exclusive" `Quick test_scan_exclusive;
          Alcotest.test_case "masked reduce" `Quick test_masked_reduce;
          Alcotest.test_case "reduce trailing axes" `Quick test_reduce_trailing_axes;
          Alcotest.test_case "scan axis" `Quick test_scan_axis;
          scan_matches_fold;
          scan_axis_independent_lanes;
        ] );
      ( "news",
        [
          Alcotest.test_case "shift +1" `Quick test_news_shift;
          Alcotest.test_case "shift -1" `Quick test_news_shift_negative;
          Alcotest.test_case "2d axis" `Quick test_news_2d_axis;
          Alcotest.test_case "masked" `Quick test_news_masked;
        ] );
      ( "router",
        [
          Alcotest.test_case "get" `Quick test_router_get;
          Alcotest.test_case "get fanin" `Quick test_router_get_fanin;
          Alcotest.test_case "send check ok" `Quick test_router_send_check_ok;
          Alcotest.test_case "send conflict" `Quick test_router_send_conflict;
          Alcotest.test_case "send combining" `Quick test_router_send_combining;
          Alcotest.test_case "send min" `Quick test_router_send_min;
          Alcotest.test_case "mask" `Quick test_router_mask;
          router_get_is_permutation;
          router_scratch_reuse;
        ] );
      ( "context",
        [
          Alcotest.test_case "stack" `Quick test_context_stack;
          Alcotest.test_case "pop base" `Quick test_context_pop_base;
          Alcotest.test_case "reset" `Quick test_context_reset;
          Alcotest.test_case "cached counts" `Quick test_context_cached_counts;
          Alcotest.test_case "land size mismatch" `Quick
            test_context_land_size_mismatch;
        ] );
      ( "cost",
        [
          Alcotest.test_case "vp ratio" `Quick test_vp_ratio;
          Alcotest.test_case "accumulates" `Quick test_cost_accumulates;
          Alcotest.test_case "router vs news" `Quick test_cost_router_dearer_than_news;
          Alcotest.test_case "congestion" `Quick test_cost_congestion;
          Alcotest.test_case "vp ratio scales" `Quick test_cost_vp_ratio_scales;
        ] );
      ( "machine",
        [
          Alcotest.test_case "sum of coords" `Quick test_machine_sum_of_coords;
          Alcotest.test_case "masked ops" `Quick test_machine_masked_ops;
          Alcotest.test_case "get/send" `Quick test_machine_get_send;
          Alcotest.test_case "send conflict" `Quick test_machine_send_conflict;
          Alcotest.test_case "fe loop" `Quick test_machine_loop;
          Alcotest.test_case "fuel" `Quick test_machine_fuel;
          Alcotest.test_case "reduce axis" `Quick test_machine_reduce_axis;
          Alcotest.test_case "reduce axis identity" `Quick test_machine_reduce_axis_identity;
          Alcotest.test_case "any reduce" `Quick test_machine_any_reduce;
          Alcotest.test_case "any reduce empty" `Quick test_machine_any_reduce_empty;
          Alcotest.test_case "float ops" `Quick test_machine_float_ops;
          Alcotest.test_case "news" `Quick test_machine_news;
          Alcotest.test_case "requires with" `Quick test_machine_requires_with;
          Alcotest.test_case "div by zero" `Quick test_machine_div_by_zero;
          Alcotest.test_case "deterministic rand" `Quick test_machine_deterministic_rand;
          Alcotest.test_case "fe read/write" `Quick test_machine_fe_read_write;
          Alcotest.test_case "psel" `Quick test_machine_psel;
          Alcotest.test_case "scan instr" `Quick test_machine_scan_instr;
          Alcotest.test_case "elapsed monotone" `Quick test_machine_elapsed_monotone;
          Alcotest.test_case "identity table" `Quick test_paris_identity;
        ] );
    ]
