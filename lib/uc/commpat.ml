open Ast

(* Communication events and their re-classification (the front half
   of `ucc tune`).

   The compiler records one *event* per communication-relevant
   operation while it lowers a program (see "communication events" in
   codegen.ml), together with the operation's static execution count
   (trip count).  Each array access keeps enough structure (affine
   subscript analysis, the activity space's geometry) to be
   re-classified later under any candidate layout, which is what lets
   Layoutsel score layouts from one lowering without running anything.
   [classify] is also the decision the lowering's access planner takes,
   so the lowering and the tuner share one classification procedure.

   Trip counts are exact for [for] loops with constant bounds and [seq]
   over index sets; data-dependent iteration (`*par`, `*oneof`, `*seq`,
   SIMD [while], front-end [while], non-constant [if]/[for], code after
   a [return] that may run, loops a [return] may end) is estimated and
   the affected events are flagged approximate. *)

(* the communication-pattern lattice: Local < News < Router *)
type pat =
  | Local
  | News of int * int (* axis, delta *)
  | Router

type sub =
  | Saffine of int * int (* axis, offset *)
  | Sopaque of (int array -> int) option
      (* evaluator over space coordinates when the subscript is a pure
         index expression; None when it depends on runtime values *)

type access = {
  aname : string;
  aloc : Loc.t;
  arw : [ `Read | `Write ];
  adims : int list; (* logical dims of the array *)
  asubs : sub list;
  aspace : int list; (* dims of the activity space *)
  avalues : int array list; (* per space axis: the element values *)
  atrips : int;
  aapprox : bool;
}

type event =
  | Access of access
  | Activity of { trips : int; size : int; approx : bool }
      (* space-entry expansion of a masked ambient context: one Pget *)
  | Hist_send of { count : string; trips : int; isize : int; approx : bool }
      (* histogram processor optimization: one combining send *)
  | Fe_access of {
      fename : string;
      ferw : [ `Read | `Write ];
      fetrips : int;
    }
      (* front-end element transfer; writes replicate under Copied *)

type summary = {
  events : event list; (* in emission order *)
  arrays : (string * int list) list; (* every global array and its dims *)
  news_opt : bool; (* the lowering's NEWS optimization flag *)
  base_layouts : Mapping.table; (* the table the events were recorded under *)
}

(* assumed iteration count for data-dependent loops; only affects the
   relative weight of approximate events during scoring, never the
   exact-count contract (those events are flagged) *)
let dynamic_trips = 8

(* ---------------- classification ---------------- *)

(* the access plan under [layout]; the lowering's access_plan takes it *)
let classify ~news_opt (a : access) (layout : Mapping.layout) : pat =
  let layout = Mapping.normalize layout in
  (* only an access on the space's own shape, every subscript affine on
     its own axis, can avoid the router *)
  let offsets =
    List.mapi
      (fun k sub ->
        match sub with Saffine (ax, off) when ax = k -> Some off | _ -> None)
      a.asubs
  in
  let aligned_candidate =
    (match layout with
    | Mapping.Default | Mapping.Shifted _ -> true
    | _ -> false)
    && a.adims = a.aspace
    && List.length a.asubs = List.length a.aspace
    && List.for_all Option.is_some offsets
  in
  if not aligned_candidate then Router
  else
    let nonzero =
      List.filter
        (fun (_, d) -> d <> 0)
        (List.mapi
           (fun k off -> (k, Option.get off - Mapping.axis_offset layout k))
           offsets)
    in
    match nonzero with
    | [] -> Local
    | [ (axis, d) ] when news_opt && abs d <= 2 ->
        (* a cyclic (Shifted) layout wraps, NEWS does not; writes are
           handled by classify_write (they never use NEWS) *)
        if layout <> Mapping.Default then Router else News (axis, d)
    | _ -> Router

(* a write is local exactly when the access is fully aligned; every
   other plan sends through the router *)
let classify_write ~news_opt a layout =
  match classify ~news_opt a layout with
  | Local -> Local
  | News _ | Router -> Router

let pat_of ~news_opt a layout =
  match a.arw with
  | `Read -> classify ~news_opt a layout
  | `Write -> classify_write ~news_opt a layout

(* predicted router/NEWS operation counts under [table]; [exact] is
   false when an estimated-trip event contributed a nonzero count *)
type prediction = {
  p_router_ops : int;
  p_news_ops : int;
  p_exact : bool;
}

let predict summary (table : Mapping.table) : prediction =
  let news_opt = summary.news_opt in
  let router = ref 0 and news = ref 0 and exact = ref true in
  let bump cell n approx =
    if n > 0 then begin
      cell := !cell + n;
      if approx then exact := false
    end
  in
  List.iter
    (fun ev ->
      match ev with
      | Access a -> (
          let layout = Mapping.find table a.aname in
          match pat_of ~news_opt a layout with
          | Local -> ()
          | News _ -> bump news a.atrips a.aapprox
          | Router ->
              let per_op =
                match a.arw, layout with
                | `Write, Mapping.Copied m -> m
                | _ -> 1
              in
              bump router (a.atrips * per_op) a.aapprox)
      | Activity { trips; approx; _ } -> bump router trips approx
      | Hist_send { trips; approx; _ } -> bump router trips approx
      | Fe_access _ -> ())
    summary.events;
  { p_router_ops = !router; p_news_ops = !news; p_exact = !exact }

(* ---------------- fan-in estimation (for scoring) ---------------- *)

(* Destination fan-in of a router access under [layout]: evaluate the
   physical address per space point and take the hottest destination.
   Falls back to 1 when a subscript depends on runtime values or the
   space is too big to enumerate. *)
let estimate_fanin (a : access) (layout : Mapping.layout) : int * int =
  let layout = Mapping.normalize layout in
  let size = List.fold_left ( * ) 1 a.aspace in
  let evaluators =
    List.map
      (function
        | Saffine (ax, off) -> Some (fun (coords : int array) -> coords.(ax) + off)
        | Sopaque f -> f)
      a.asubs
  in
  if size <= 0 || size > 65536 || List.exists Option.is_none evaluators then
    (size, 1)
  else begin
    let g = Cm.Geometry.create a.aspace in
    let counts = Hashtbl.create 64 in
    let valid = ref 0 in
    let total = List.fold_left ( * ) 1 a.adims in
    let copies = match layout with Mapping.Copied m -> m | _ -> 1 in
    let block =
      match a.aspace with e0 :: _ -> max 1 (e0 / copies) | [] -> 1
    in
    for p = 0 to size - 1 do
      let coords = Cm.Geometry.coords g p in
      let subs = List.map (fun f -> (Option.get f) coords) evaluators in
      let in_range =
        List.for_all2 (fun v d -> v >= 0 && v < d) subs a.adims
      in
      if in_range then begin
        incr valid;
        let base = Mapping.physical_index layout a.adims subs in
        let addr =
          match layout with
          | Mapping.Copied _ when a.arw = `Read ->
              (* reads spread across copies in leading-coordinate blocks
                 (as the lowering's gen_read does) *)
              let sel = coords.(0) / block mod copies in
              (sel * total) + base
          | _ -> base
        in
        Hashtbl.replace counts addr
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts addr))
      end
    done;
    let fanin = Hashtbl.fold (fun _ c acc -> max c acc) counts 1 in
    (!valid, fanin)
  end

(* ---------------- counted loops ---------------- *)

let const_of e = try Some (Sema.const_eval e) with _ -> None

(* a statement, or one nested in it, satisfies [p]; parallel bodies
   hold no front-end control flow, so they are not entered *)
let rec exists_stmt p s =
  p s
  ||
  match s.s with
  | Sblock b -> List.exists (exists_stmt p) b.bstmts
  | Sif (_, t, e) -> exists_stmt p t || Option.fold ~none:false ~some:(exists_stmt p) e
  | Swhile (_, b) -> exists_stmt p b
  | Sfor (i, _, stp, b) ->
      List.exists (exists_stmt p) (Option.to_list i @ Option.to_list stp @ [ b ])
  | Sseq ps -> List.exists (fun (_, b) -> exists_stmt p b) ps.pbranches
  | _ -> false

(* the statement can leave an enclosing loop, or the program, early *)
let escapes =
  exists_stmt (fun s ->
      match s.s with Sbreak | Scontinue | Sreturn _ -> true | _ -> false)

(* static trip count of a canonical counted for-loop: constant start,
   bound and step, and a body that neither assigns the variable nor
   escapes the loop *)
let for_trips init cond step body =
  let var_and_const = function
    | Some { s = Sassign (Aset, { e = Evar v; _ }, rhs); _ } ->
        Option.map (fun c -> (v, c)) (const_of rhs)
    | _ -> None
  in
  let assigns_var v =
    exists_stmt (fun s ->
        match s.s with
        | Sassign (_, { e = Evar v'; _ }, _) -> v = v'
        | Sexpr { e = Ecall ("swap", args); _ } ->
            List.exists (fun a -> a.e = Evar v) args
        | _ -> false)
  in
  match var_and_const init, cond with
  | Some (v, c0), Some { e = Ebin (cmp, { e = Evar v'; _ }, bound); _ }
    when v = v' -> (
      match const_of bound, step with
      | ( Some c1,
          Some
            {
              s =
                Sassign
                  ( Aset,
                    { e = Evar v''; _ },
                    {
                      e =
                        Ebin
                          ( (Add | Sub) as sop,
                            { e = Evar v'''; _ },
                            stepc );
                      _;
                    } );
              _;
            } )
        when v = v'' && v = v''' -> (
          match const_of stepc with
          | Some sc when sc > 0 && not (assigns_var v body || escapes body) -> (
              let sc = if sop = Sub then -sc else sc in
              match cmp, compare sc 0 with
              | Lt, 1 -> Some (max 0 ((c1 - c0 + sc - 1) / sc))
              | Le, 1 -> Some (max 0 ((c1 - c0 + sc) / sc))
              | Gt, -1 -> Some (max 0 ((c0 - c1 - sc - 1) / -sc))
              | Ge, -1 -> Some (max 0 ((c0 - c1 - sc) / -sc))
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ---------------- pretty ---------------- *)

let pat_to_string = function
  | Local -> "local"
  | News (axis, d) -> Printf.sprintf "news(axis %d, %+d)" axis d
  | Router -> "router"
