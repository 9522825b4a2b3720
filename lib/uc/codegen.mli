(** Code generation: UC abstract syntax to {!Cm.Paris} programs.

    Expects input already processed by {!Transform} (no user functions
    other than [main], no [solve]).  The lowering follows the CM execution
    model:

    - every distinct activity-space shape gets one VP set; conforming
      arrays share the VP set of their shape (the paper's default
      mapping), so an identity access [a[i]] is a local operation;
    - [st] predicates, [if], SIMD [while] and the short-circuit operators
      become context (activity-flag) manipulation; sub-expressions that
      could fault or perform [rand] are evaluated under the narrowed
      context, which reproduces C's short-circuit semantics elementwise;
    - nested constructs and reductions expand the activity space: the
      ambient activity is read out of the context ([Cread]) and fetched
      into the product space through the router, element values are
      recomputed from coordinates, and nested reductions finish with an
      axis reduction back onto the ambient space;
    - a parallel assignment evaluates its right-hand side in full before
      committing (two-phase), with identity-aligned accesses lowered to
      local field operations and everything else to router traffic with
      the checking combiner (the "one value per variable" rule);
    - map-section layouts ({!Mapping}) change the address arithmetic
      only. *)

type options = {
  news_opt : bool;      (** turn static-safe unit-offset accesses into NEWS shifts *)
  procopt : bool;       (** histogram processor optimization (paper section 4) *)
  use_mappings : bool;  (** honour map sections *)
  cse : bool;           (** reuse pure parallel sub-expressions (common
                            sub-expression detection, paper section 4) *)
  ir_opt : Cm.Iropt.config;
                        (** Paris-IR pass pipeline run on the lowered
                            program ({!Cm.Iropt.run}); named arrays and
                            scalars are the liveness roots *)
}

val default_options : options

type array_meta = {
  afield : int;
  aty : Ast.base_ty;
  adims : int list;
  alayout : Mapping.layout;
}

type scalar_meta = { sreg : int; sty : Ast.base_ty }

type compiled = {
  prog : Cm.Paris.program;
  carrays : (string * array_meta) list;
  cscalars : (string * scalar_meta) list;
  summary : Commpat.summary;
      (** the communication events recorded while lowering, with static
          trip counts: what {!Layoutsel} re-classifies under candidate
          layouts *)
}

(** [compile program] lowers a checked, transformed program.  [layouts]
    is the single seam through which layout information enters
    lowering: when given (normalized on entry), it replaces the
    program's own map sections — this is how [ucc tune] lowers with a
    synthesized {!Mapping.table}; when absent, the table comes from
    {!Mapping.of_program} unless [use_mappings] is off.  [obs]
    (default {!Obs.null}) is passed to the IR optimizer, which reports
    its per-pass statistics as ["iropt."]-prefixed counters (the
    surface behind [ucc --ir-opt-stats]).
    @raise Loc.Error on unsupported constructs. *)
val compile :
  ?layouts:Mapping.table ->
  ?options:options ->
  ?obs:Obs.t ->
  Ast.program ->
  compiled
