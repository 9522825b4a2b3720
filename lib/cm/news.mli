(** NEWS-grid nearest-neighbour communication.

    The CM-2 NEWS grid lets every processor fetch from a fixed-offset
    neighbour along one axis far more cheaply than through the general
    router.  [shift] models a grid shift: every destination whose source
    coordinate falls inside the geometry receives the source value;
    destinations whose source would fall off the edge keep their previous
    value (the code generator only emits NEWS ops under a context that
    masks such border positions). *)

(** [shift g ~axis ~delta ~lo ~hi src dst] writes [dst.(p) <- src.(p
    with coordinate[axis] incremented by delta)] for every in-range
    destination position [p] in [\[lo, hi)]; the whole field is [~lo:0
    ~hi:(Geometry.size g)].  Positions are written in ascending order,
    so an in-place shift ([src == dst]) reads the values already written
    below it.  Disjoint ranges of distinct arrays may run concurrently.
    @raise Invalid_argument on size/axis errors. *)
val shift :
  Geometry.t -> axis:int -> delta:int -> lo:int -> hi:int -> 'a array -> 'a array -> unit

(** [shift_masked] is {!shift} restricted to positions where the
    destination mask is true. *)
val shift_masked :
  Geometry.t ->
  axis:int ->
  delta:int ->
  mask:bool array ->
  lo:int ->
  hi:int ->
  'a array ->
  'a array ->
  unit
