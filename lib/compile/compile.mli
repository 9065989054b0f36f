(** Staging analysis: partially evaluate a generative program once
    into a straight-line execution plan.

    [compile] reuses the preflight abstract-interpretation walk
    ({!Check.trail}) to discover a program's site structure, then
    freezes it into an immutable {!Gen.Plan.t}: addresses interned to
    integer slots, plate lowering decisions pre-made, and fused
    density kernels identified. Plans are analysis only — they back
    the PV501 verdicts, the [Shape.of_plan] tables and [ppvi compile];
    every program runs on the interpreter.

    Programs whose structure is not static refuse compilation with
    diagnostic {b PV501} (see [docs/DIAGNOSTICS.md]): data-dependent
    control flow (differing trails across probe paths), sites that
    re-run their continuation (ENUM/MVD enumeration, [marginal] /
    [normalize] sub-inference), truncated analysis, or address
    collisions that would break the plan's slot-table uniqueness.
    Refusal is a normal value, not an error. *)

type refusal = {
  r_code : string;  (** Stable diagnostic code; currently ["PV501"]. *)
  r_address : string option;  (** Offending site, when site-specific. *)
  r_reason : string;  (** Human-readable explanation. *)
}

type result = Compiled of Gen.Plan.t | Refused of refusal

val compile : ?fuel:int -> ?max_width:int -> id:string -> Gen.packed -> result
(** One uncached staging pass: run the structure-discovery walk and
    either freeze a plan or refuse with a PV501 diagnostic. *)

val plan_for : ?fuel:int -> ?max_width:int -> id:string -> Gen.packed -> result
(** Cached {!compile}, keyed by [id] (model identity). Hits and misses
    are counted in the ["compile/plan_hit"] / ["compile/plan_miss"]
    observability counters; each miss runs under a
    ["compile/<id>"] preflight span so [ppvi profile] shows staging
    amortization. Refusals are cached too (counter
    ["compile/refused"]), so the walk runs only once per id. *)

val invalidate : string -> unit
(** Drop the cached result for one plan id; the next {!plan_for} call
    re-stages. Use after mutating a model's structure. *)

val reset_cache : unit -> unit
(** Drop every cached result (tests, benchmarks). *)

val cached_ids : unit -> string list
(** Ids currently in the plan cache, sorted. *)

val yolo_sketch : Gen.Plan.t -> Yolo.program option
(** The plan's straight-line fragment rendered in the [Yolo] ANF IR,
    where expressible: one [Sample_normal] statement per scalar
    REPARAM normal site. [None] when no site fits the IR's
    language. *)

val describe : id:string -> result -> string
(** Human-readable rendering: the slot table, per-step kernel listing
    (fused kernels and sequential fallbacks marked), and the Yolo
    sketch — or the refusal diagnostic. *)

val to_json : id:string -> result -> string
(** Single-line JSON object (no external dependency) with the same
    content as {!describe}, for [ppvi compile --json] and the CI
    compile-smoke artifact. *)
