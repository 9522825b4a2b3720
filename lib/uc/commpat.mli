(** Communication events and their re-classification (paper section
    4's cost reasoning, made a compiler stage).

    The compiler records one {!event} per communication-relevant
    operation while it lowers a program — array accesses with their affine
    subscript structure, space-entry activity expansions, histogram
    combining sends, front-end element transfers — together with static
    trip counts, and returns them as a {!summary}.  Each access keeps
    enough structure to be re-classified under {b any} candidate layout,
    which lets {!Layoutsel} score layouts from one lowering without
    running anything.  {!classify} is the decision the lowering's own
    access planner takes.

    Trip counts are exact for counted [for] loops and [seq] nests;
    data-dependent iteration ([*par], [*oneof], [*seq], SIMD [while],
    front-end [while], non-constant [if]) and code after a [return] that
    may run are estimated and flagged. *)

(** The classification lattice: [Local] < [News _] < [Router]. *)
type pat =
  | Local           (** same-processor field access: no communication *)
  | News of int * int  (** grid shift by [delta] along [axis]: one NEWS op *)
  | Router          (** general communication: one router op *)

type sub =
  | Saffine of int * int  (** space axis, constant offset *)
  | Sopaque of (int array -> int) option
      (** pure-index evaluator over space coordinates, when available *)

type access = {
  aname : string;
  aloc : Loc.t;
  arw : [ `Read | `Write ];
  adims : int list;         (** logical dims of the array *)
  asubs : sub list;
  aspace : int list;        (** dims of the activity space *)
  avalues : int array list; (** per space axis, the element values *)
  atrips : int;             (** static execution count *)
  aapprox : bool;           (** trip count was estimated *)
}

type event =
  | Access of access
  | Activity of { trips : int; size : int; approx : bool }
      (** ambient-activity expansion on space entry: one router op *)
  | Hist_send of { count : string; trips : int; isize : int; approx : bool }
      (** histogram processor optimization: one combining send *)
  | Fe_access of {
      fename : string;
      ferw : [ `Read | `Write ];
      fetrips : int;
    }  (** front-end element transfer; writes replicate under [Copied] *)

type summary = {
  events : event list;                 (** in emission order *)
  arrays : (string * int list) list;   (** global arrays and their dims *)
  news_opt : bool;                     (** the lowering's NEWS flag *)
  base_layouts : Mapping.table;        (** table the events were recorded under *)
}

(** Assumed iteration count for data-dependent loops. *)
val dynamic_trips : int

(** Classify a {b read} access under a layout: the plan the lowering
    takes, and the tuner's re-classification under a candidate (NEWS
    needs the plain layout, a single unit-or-double offset and
    [news_opt]). *)
val classify : news_opt:bool -> access -> Mapping.layout -> pat

(** Writes never use NEWS: [Local] exactly when fully aligned,
    [Router] otherwise. *)
val classify_write : news_opt:bool -> access -> Mapping.layout -> pat

(** {!classify} or {!classify_write} according to the access's kind. *)
val pat_of : news_opt:bool -> access -> Mapping.layout -> pat

type prediction = {
  p_router_ops : int;
  p_news_ops : int;
  p_exact : bool;
      (** no estimated-trip event contributed a nonzero count *)
}

(** Predicted router/NEWS operation counts under a layout table.  On
    programs with static control flow these match the machine's meter
    ([router_ops]/[news_ops]) exactly. *)
val predict : summary -> Mapping.table -> prediction

(** [(messages, max_fanin)] of a router access under a layout,
    estimated by evaluating the subscripts over every space point
    (capped; falls back to fan-in 1 when a subscript depends on runtime
    values). *)
val estimate_fanin : access -> Mapping.layout -> int * int

(** The statement, or a front-end statement nested in it, is a
    [break], [continue] or [return]: it can end an enclosing loop early. *)
val escapes : Ast.stmt -> bool

(** Static trip count of a counted front-end [for (init; cond; step)
    body]: constant start, bound and step, and a body that neither
    assigns the loop variable nor escapes the loop; [None] otherwise. *)
val for_trips :
  Ast.stmt option -> Ast.expr option -> Ast.stmt option -> Ast.stmt -> int option

val pat_to_string : pat -> string
