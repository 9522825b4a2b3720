(* The traced run's span recorder.

   Spans come from two sources and land in one tree per thread of
   control: the benchmark's own timers around calls into a layer's
   public functions ({!with_span}), and the begin/end events of an
   [Obs] scope handed to the program's existing APIs ({!obs}), which
   yields the [compile.*], [iropt.*], [cm.decode] and [job] spans the
   library already emits.  A span's parent is the innermost span open on
   the same (domain, thread) when it began; its job id is inherited from
   the parent unless the span starts a job.

   Self time (a span's duration minus the part its children cover) is
   aggregated per name as spans close, so the summary costs no second
   pass; the spans themselves are kept in memory (the first [keep]) and
   written out as JSON lines when the run ends. *)

let keep = 200_000

type span = {
  id : int;
  name : string;
  t0 : float;  (** seconds, [Unix.gettimeofday] *)
  t1 : float;
  parent : int;  (** 0 = a root *)
  job : int;  (** 0 = outside any job *)
}

type frame = {
  f_id : int;
  f_name : string;
  f_t0 : float;
  f_parent : int;
  f_job : int;
  mutable f_child : float;  (** seconds covered by closed children *)
}

type agg = {
  mutable count : int;
  mutable total : float;  (** seconds *)
  mutable self : float;
}

type t = {
  lock : Mutex.t;
  stacks : (int * int, frame list ref) Hashtbl.t;  (** (domain, thread) *)
  roots : (string, (string, agg) Hashtbl.t) Hashtbl.t;
      (** root span name -> span name -> aggregate, for every span
          (the root included) that closed under a root of that name *)
  mutable next_id : int;
  mutable next_job : int;
  mutable kept : span list;
  mutable n_kept : int;
  mutable dropped : int;
}

let create () =
  {
    lock = Mutex.create ();
    stacks = Hashtbl.create 16;
    roots = Hashtbl.create 8;
    next_id = 1;
    next_job = 1;
    kept = [];
    n_kept = 0;
    dropped = 0;
  }

let now = Unix.gettimeofday

let stack t =
  let key = ((Domain.self () :> int), Thread.id (Thread.self ())) in
  match Hashtbl.find_opt t.stacks key with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.replace t.stacks key s;
      s

(* lock held *)
let open_ t ~starts_job name =
  let st = stack t in
  let parent, job =
    match !st with f :: _ -> (f.f_id, f.f_job) | [] -> (0, 0)
  in
  let job =
    if starts_job then (
      let j = t.next_job in
      t.next_job <- j + 1;
      j)
    else job
  in
  let f =
    { f_id = t.next_id; f_name = name; f_t0 = now (); f_parent = parent;
      f_job = job; f_child = 0. }
  in
  t.next_id <- t.next_id + 1;
  st := f :: !st

let agg_of t ~root name =
  let tbl =
    match Hashtbl.find_opt t.roots root with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 16 in
        Hashtbl.replace t.roots root h;
        h
  in
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
      let a = { count = 0; total = 0.; self = 0. } in
      Hashtbl.replace tbl name a;
      a

(* lock held; closes the innermost open span named [name] on this
   thread (an Obs end event always matches the innermost begin) *)
let close_ t name =
  let st = stack t in
  match !st with
  | f :: rest when f.f_name = name ->
      let t1 = now () in
      let dur = t1 -. f.f_t0 in
      let self = dur -. f.f_child in
      st := rest;
      (match rest with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
      let root =
        match List.rev rest with r :: _ -> r.f_name | [] -> name
      in
      let a = agg_of t ~root name in
      a.count <- a.count + 1;
      a.total <- a.total +. dur;
      a.self <- a.self +. self;
      if t.n_kept < keep then begin
        t.kept <-
          { id = f.f_id; name; t0 = f.f_t0; t1; parent = f.f_parent;
            job = f.f_job }
          :: t.kept;
        t.n_kept <- t.n_kept + 1
      end
      else t.dropped <- t.dropped + 1
  | _ -> ()

(** [with_span t ?starts_job name f] times [f ()] as a span. *)
let with_span t ?(starts_job = false) name f =
  Mutex.protect t.lock (fun () -> open_ t ~starts_job name);
  Fun.protect
    ~finally:(fun () -> Mutex.protect t.lock (fun () -> close_ t name))
    f

(** An enabled [Obs] scope whose begin/end events become spans.  The
    sink runs on the emitting thread, under the scope's own lock.  An
    [Obs] span named ["job"] starts a job. *)
let obs t =
  let scope = Obs.create ~clock:Unix.gettimeofday ~ring_capacity:1 () in
  Obs.add_sink scope (fun ev ->
      match ev.Obs.phase with
      | Obs.Begin ->
          Mutex.protect t.lock (fun () ->
              open_ t ~starts_job:(ev.Obs.name = "job") ev.Obs.name)
      | Obs.End -> Mutex.protect t.lock (fun () -> close_ t ev.Obs.name)
      | Obs.Point -> ());
  scope

(** [(count, total seconds, self seconds)] of the spans named [name]
    that closed under a root named [root]. *)
let agg t ~root name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.roots root with
      | None -> (0, 0., 0.)
      | Some h -> (
          match Hashtbl.find_opt h name with
          | Some a -> (a.count, a.total, a.self)
          | None -> (0, 0., 0.)))

let total t ~root name = let _, tot, _ = agg t ~root name in tot
let self t ~root name = let _, _, s = agg t ~root name in s

(** Root names seen, sorted. *)
let roots t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.roots [] |> List.sort compare)

(** [(name, self seconds)] of every span under roots named [root], the
    root included, sorted by name: these add up to the roots' total. *)
let self_times t ~root =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.roots root with
      | None -> []
      | Some h ->
          Hashtbl.fold (fun k a acc -> (k, a.self) :: acc) h []
          |> List.sort compare)

(** Write every kept span as one JSON line, in start order. *)
let write t path =
  let spans =
    Mutex.protect t.lock (fun () -> t.kept)
    |> List.sort (fun a b -> compare a.id b.id)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"job\":%d}\n"
            s.id s.name s.t0 s.t1 s.parent s.job)
        spans);
  (List.length spans, t.dropped)
