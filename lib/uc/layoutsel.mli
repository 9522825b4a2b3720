(** Layout optimizer: the search behind [ucc tune].

    Enumerates candidate layouts per array (default, permutes derived
    from observed access offsets, fold, replication for high-fan-in
    gathers) and scores each candidate {b statically}: the
    communication events {!Codegen.compile} recorded while lowering the
    program once, under the all-default table, are re-classified under
    the candidate ({!Commpat.classify}) and charged to a fresh
    {!Cm.Cost} meter the way the machine would charge the real
    instructions.  The program is lowered once and never run.

    The objective is separable (an event's cost depends only on its own
    array's layout), so the table argmin decomposes per array.  Default
    is always a candidate: the chosen table's predicted cost is never
    worse than the default's. *)

type choice = {
  cname : string;
  cdims : int list;
  clayout : Mapping.layout;
  crationale : string;
  cdefault_ns : float;  (** predicted comm ns of this array's events *)
  cchosen_ns : float;
}

type result = {
  table : Mapping.table;  (** canonical: non-default entries only *)
  choices : choice list;  (** every global array, declaration order *)
  summary : Commpat.summary;
  chosen_prediction : Commpat.prediction;
  default_prediction : Commpat.prediction;
  chosen_ns : float;  (** whole-program predicted communication ns *)
  default_ns : float;
}

(** Predicted communication cost (simulated ns) of [events] under a
    layout table — the scoring primitive, exposed for tests. *)
val score :
  ?params:Cm.Cost.params ->
  Commpat.summary ->
  Mapping.table ->
  Commpat.event list ->
  float

(** Search over a recorded summary (must have been recorded under the
    all-default table). *)
val search_summary : ?params:Cm.Cost.params -> Commpat.summary -> result

(** Lower a transformed, folded program once under the all-default
    table (existing map sections are ignored) and search its summary. *)
val search :
  ?options:Codegen.options -> ?params:Cm.Cost.params -> Ast.program -> result

(** Parse, check, transform, fold, then {!search}. *)
val search_source :
  ?options:Codegen.options -> ?params:Cm.Cost.params -> string -> result
