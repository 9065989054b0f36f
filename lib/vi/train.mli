(** Stochastic-optimization driver: repeatedly estimate an objective's
    gradient with ADEV and apply an optimizer update.

    Every loop flavor is guarded (see [Guard]): after each backward
    pass the objective and gradients are scanned for NaN/Inf, and the
    guard's policy decides whether to proceed, skip, roll back to the
    last snapshot, or raise [Guard.Diverged]. When no [?guard] is
    passed, a fresh default guard ([Skip_step], no clipping) is used,
    which reproduces the historical behavior exactly — same updates,
    same PRNG stream — while still counting anomalies.

    Every loop flavor is also {e resumable}: with [?persist] the loop
    writes rotated, checksummed checkpoints (see [Persist]) after
    every [cfg.every]-th committed step and, on startup, restores the
    newest readable one — parameters, optimizer moments, and guard
    counters — continuing bit-exactly where the interrupted run left
    off. With fault injection active (see [Fault]) each step first
    runs the fault plan's step hook, and an {e injected}
    [Out_of_memory] is absorbed by skipping that step's update
    (counted as ["train/oom_skipped"]); real allocation failures
    still propagate. *)

type report = {
  step : int;
  objective : float;  (** The (primal) objective estimate at this step. *)
  anomalies : int;
      (** Cumulative anomalies observed by the guard so far (including
          ones absorbed by skips or rollbacks). *)
  retries : int;  (** Cumulative rollbacks performed so far. *)
}

(** {1 Shardable step specifications}

    Every training flavor lowers to one {e step spec}: a builder that,
    given a parameter frame, the step index, a shard index, and that
    shard's PRNG key, returns the shard's surrogate loss. The driver
    runs one independent forward + backward per shard (own frame, own
    tape) on the [Parallel] domain pool and combines the shard
    gradients with a deterministic fixed-shape pairwise tree reduction
    keyed by parameter name — so for any fixed shard count, results
    are bit-identical whether the pool runs 1 domain or many. Shard
    surrogates must be scaled so that their {e sum} over shards is the
    step objective. Shard blocks run with observability suppressed.

    When a step has more than one shard, every shard block runs under
    [Adev.in_shard], on any domain count. A REINFORCE-baseline site
    (a mutable cell every shard would share) reached there raises
    [Adev.Unshardable_site] with its address, before it samples or
    updates the cell, so the step fails before any parameter update
    (see docs/MEMORY.md). MVD sites are sharding-safe: their coupling
    replays are marked per domain. *)

type shard_spec = {
  shards : int;  (** Number of data-parallel shards per step (>= 1). *)
  remat : bool;
      (** Wrap each shard's surrogate in an [Ad.checkpoint] barrier:
          the shard's tape segment is discarded after construction and
          rematerialized during backward, with transient tensors drawn
          from the domain's segment pool. *)
  make :
    Store.Frame.t -> step:int -> shard:int -> shards:int -> Prng.key -> Ad.t;
      (** [make frame ~step ~shard ~shards key] builds shard [shard]'s
          surrogate. With [shards = 1] the key is the historical
          per-step key [fold_in key step]; otherwise shard [i]
          receives [fold_in key_step i]. *)
}

val shard_step :
  store:Store.t ->
  spec:shard_spec ->
  step:int ->
  Prng.key ->
  float * (string * Tensor.t) list
(** One step's forward/backward(s) for [spec] outside the training loop
    — no guard, no optimizer, no observability spans — returning the
    objective value and the tree-reduced gradients. The key discipline
    matches the driver ([fold_in key step], then [fold_in _ shard] when
    sharded), so the memory bench and the determinism tests exercise
    the same reduction shape {!fit_spec} runs.
    @raise Adev.Unshardable_site as described above. *)

val fit_spec :
  store:Store.t ->
  optim:Optim.t ->
  ?direction:Optim.direction ->
  ?guard:Guard.t ->
  ?persist:Persist.cfg ->
  ?preflight:Check.target list ->
  ?preflight_strict:bool ->
  ?compiled:(string * Gen.packed) list ->
  ?on_step:(report -> unit) ->
  steps:int ->
  spec:shard_spec ->
  Prng.key ->
  report list
(** The generic driver: every other flavor is a [shard_spec] instance.
    Guard scanning, persistence, fault hooks, and reporting all run on
    the coordinating domain against the tree-reduced gradients, so
    chaos drills and crash-exact resume behave identically in sharded
    and sequential runs. *)

val fit :
  store:Store.t ->
  optim:Optim.t ->
  ?direction:Optim.direction ->
  ?samples:int ->
  ?remat:bool ->
  ?guard:Guard.t ->
  ?persist:Persist.cfg ->
  ?preflight:Check.target list ->
  ?preflight_strict:bool ->
  ?compiled:(string * Gen.packed) list ->
  ?on_step:(report -> unit) ->
  steps:int ->
  objective:(Store.Frame.t -> int -> Ad.t Adev.t) ->
  Prng.key ->
  report list
(** [fit ~store ~optim ~steps ~objective key] runs [steps] updates. The
    objective builder receives a fresh parameter frame and the step
    index (for minibatching) and returns the lambda_ADEV objective;
    [samples] (default 1) gradient estimates are averaged per step.
    Direction defaults to [Ascend]. Returns one report per step, in
    order — the {e committed} trajectory: steps undone by a rollback
    are replayed and reported once, though [on_step] may fire more
    than once per index while retrying.

    [preflight] statically analyzes the given targets (see [Check])
    before the first step: diagnostics are printed to stderr, and with
    [preflight_strict] (default false) any error-severity diagnostic
    raises [Check.Preflight_error] instead of starting training.

    [compiled] stages the named programs through [Compile.plan_for]
    before step 0 (under the ["train/compile"] span) and reports each
    PV501 refusal. This is analysis only: every program runs on the
    interpreter either way.

    [remat] (default false) places an [Ad.checkpoint] barrier around
    each of the [samples] per-sample surrogates: gradients stay
    bit-identical (replay is keyed), peak live tape drops to one
    sample's segment.
    @raise Guard.Diverged per the guard's policy.
    @raise Check.Preflight_error under [preflight_strict]. *)

val fit_batch :
  store:Store.t ->
  optim:Optim.t ->
  ?direction:Optim.direction ->
  ?shards:int ->
  ?remat:bool ->
  ?guard:Guard.t ->
  ?persist:Persist.cfg ->
  ?preflight:Check.target list ->
  ?preflight_strict:bool ->
  ?compiled:(string * Gen.packed) list ->
  ?on_step:(report -> unit) ->
  steps:int ->
  objectives:(Store.Frame.t -> int -> Ad.t Adev.t list) ->
  Prng.key ->
  report list
(** Like {!fit}, for per-datum objectives that must be estimated with
    {e independent} randomness (so that e.g. an ENUM site in one datum
    does not enumerate jointly with the next datum's sites): each
    objective in the returned list gets its own surrogate and key, and
    the update uses their average.

    [shards] (default 1) splits the objective list into contiguous
    ranges, one per shard, estimated data-parallel on the domain pool
    and tree-reduced; [shards = 1] reproduces the historical stream
    bit-for-bit, and any fixed [shards > 1] is bit-reproducible across
    domain counts. [remat] checkpoints each shard's surrogate.
    @raise Adev.Unshardable_site when [shards > 1] and an objective
    reaches a REINFORCE-baseline site; no update has been applied. *)

val fit_batched :
  store:Store.t ->
  optim:Optim.t ->
  ?direction:Optim.direction ->
  ?guard:Guard.t ->
  ?persist:Persist.cfg ->
  ?preflight:Check.target list ->
  ?preflight_strict:bool ->
  ?compiled:(string * Gen.packed) list ->
  ?on_step:(report -> unit) ->
  steps:int ->
  objective:(Store.Frame.t -> int -> int * Ad.t Adev.t) ->
  Prng.key ->
  report list
(** Like {!fit_batch}, for vectorized per-instance objectives (e.g.
    {!Objectives.elbo_batched}): the builder returns the instance count
    [m] together with ONE lambda_ADEV computation whose value is the
    [[m]]-vector of per-instance objective terms; the update uses
    [sum / m] as the surrogate. One batched pass replaces [m]
    independent surrogates — the instances share the step's key, which
    is exactly what the batched evaluators' [fold_in] row discipline
    expects. *)

val fit_surrogate :
  store:Store.t ->
  optim:Optim.t ->
  ?direction:Optim.direction ->
  ?guard:Guard.t ->
  ?persist:Persist.cfg ->
  ?preflight:Check.target list ->
  ?preflight_strict:bool ->
  ?compiled:(string * Gen.packed) list ->
  ?on_step:(report -> unit) ->
  steps:int ->
  surrogate:(Store.Frame.t -> int -> Prng.key -> Ad.t) ->
  Prng.key ->
  report list
(** Escape hatch for engines that build their own surrogate losses
    (the monolithic baseline of [lib/baseline]); guarded like the
    others. *)

val eval :
  store:Store.t ->
  ?samples:int ->
  objective:(Store.Frame.t -> Ad.t Adev.t) ->
  Prng.key ->
  float
(** Monte Carlo estimate of an objective at the current parameters,
    without updating them. Runs through [Adev.estimate], so it builds
    no tape. *)
