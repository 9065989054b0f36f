(** Request-coalescing scheduler for the inference daemon.

    Connection threads {!submit} requests; a single executor thread
    pops up to [max_batch] same-model requests that arrived within a
    [max_wait_us] window and runs their density work as ONE batched
    evaluation ({!Gen.log_density_batched}), de-multiplexing per-row
    results back to the waiting callers.

    {2 Bit-identity contract}

    Only the {e deterministic} part of a request — the joint density —
    is vectorized across requests. Anything that consumes randomness
    ([elbo] particle draws, [sample], [grad]) runs scalar per request
    under that request's own key, so the values a request receives do
    not depend on which other requests happened to share its batch:

    - [score]: the client trace becomes one row of a stacked trace.
    - [elbo] with [k] particles: the [k] guide traces are drawn
      scalar-wise via [Gen.sample_prior] under
      [Prng.fold_in (Prng.key seed) p], then contribute [k] rows to the
      shared density batch; the reply is the mean of
      [logp_row - logq_p] in particle order.
    - [sample] and [grad] execute scalar inside the batch loop.

    Row [i] of [Gen.log_density_batched] is bit-identical to a scalar
    evaluation of that row's trace (the lib/gen batched-engine
    invariant), so a request coalesced into a 64-row batch returns
    exactly the bytes it would have returned alone. The serve test
    suite re-checks this end-to-end for every registered model. *)

type t

type cfg = {
  max_batch : int;  (** rows coalesced into one execution *)
  max_wait_us : float;  (** how long the executor lingers for company *)
  queue_bound : int;  (** admission bound; beyond it -> [overloaded] *)
}

val default_cfg : cfg
(** [{ max_batch = 64; max_wait_us = 200.; queue_bound = 256 }] *)

val create : cfg -> t

(** {1 Model registry} *)

val register :
  t ->
  name:string ->
  model:unit Gen.t ->
  guide:(Store.Frame.t -> unit Gen.t) ->
  store:Store.t ->
  ?params_dir:string ->
  unit ->
  unit
(** Registers a servable model. The model must have a static set of
    real-carrier latent addresses (sampled by the guide). When
    [params_dir] is given, the store is warm-started from
    [Store.load_latest_result params_dir] and hot-reloaded whenever a
    newer [ckpt.N] appears there (polled at most every 250 ms, one
    [readdir] per poll; no file is read while the newest is the one
    loaded). *)

val register_builtins : ?params_root:string -> t -> unit
(** Registers the built-in servable models: [coin], [cone] (naive
    guide) and [chain] (a deep elementwise chain over 8 scalar
    latents, the interpreter-overhead-heavy load-test model). With
    [params_root], model ["m"] warm-starts from [params_root/m]. *)

val chain_latents : int
(** Latent count of the built-in [chain] model (addresses [z0..]). *)

val models : t -> string list
val model_sig : t -> string -> string list option
(** Sorted latent addresses of a registered model. *)

(** {1 Submitting} *)

type outcome =
  | O_value of float
  | O_sample of (string * Proto.wire_value) list * float
  | O_grad of float * (string * float) list
  | O_error of string * string  (** code, message *)

val submit : t -> ?deadline_ms:float -> Proto.request -> outcome
(** Blocks the calling thread until the executor answers. Admission
    control runs first: a draining batcher answers [draining], a full
    queue answers [overloaded], both without blocking. [Health], [Stats]
    and [Hello] are not queueable and answer [bad-request]. *)

(** {1 Lifecycle} *)

val start : t -> unit
(** Spawns the executor thread. Idempotent. *)

val drain : t -> unit
(** Stops admitting, lets the executor flush every queued request, then
    joins it. Every request admitted before the drain gets a real
    reply; requests submitted after it get [draining] errors. *)

val draining : t -> bool

val pause : t -> unit
(** Testing/ops hook: holds the executor before its next batch so the
    queue can be inspected or filled deterministically. *)

val resume : t -> unit

(** {1 Introspection} *)

type stats = {
  s_uptime_s : float;
  s_queue_depth : int;
  s_requests : int;  (** admitted *)
  s_replies : int;
  s_overloaded : int;
  s_deadline : int;
  s_rejected_draining : int;
  s_batches : int;
  s_rows : int;  (** requests executed (every one joins some batch) *)
  s_coalesced : int;  (** requests beyond the first in their batch *)
  s_vectorized_rows : int;  (** density rows evaluated in a stacked run *)
  s_scalar_rows : int;  (** density rows evaluated scalar *)
  s_fallbacks : int;  (** stacked runs that fell back to scalar *)
  s_max_batch : int;
  s_max_queue : int;
  s_reloads : int;  (** checkpoint hot reloads *)
  s_draining : bool;
}

val stats : t -> stats
val coalesce_ratio : stats -> float
(** [rows / batches]; 1.0 means no coalescing happened. *)

val stats_json : t -> Obs.Json.t
val queue_depth : t -> int
