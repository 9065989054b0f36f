(** Request-coalescing scheduler for the inference daemon.

    Connection threads {!submit} requests; a single executor thread
    pops up to [max_batch] queued same-model requests and runs their
    density work as ONE batched evaluation
    ({!Gen.log_density_batched}), de-multiplexing per-row results back
    to the waiting callers.

    {2 Lingering for company}

    A caller that waits for its reply cannot send again, so the
    executor waits for more rows only when they can come: while fewer
    requests are queued than callers are declared through
    {!with_client}, and fewer than [max_batch]. It waits at most
    [max_wait_us], and each arrival or departing client wakes it. With
    one declared client, or none (in-process callers of {!submit}), a
    batch runs as soon as its first request lands; with two
    closed-loop clients it runs when the second lands.

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

    Score, elbo and sample replies are floats nobody differentiates:
    their density rows, particle draws and sample draws run inside
    [Ad.primal], so they build no tape and return the same bits a taped
    evaluation would. Grad replies stay taped.

    Row [i] of [Gen.log_density_batched] is bit-identical to a scalar
    evaluation of that row's trace (the lib/gen batched-engine
    invariant), so a request coalesced into a 64-row batch returns
    exactly the bytes it would have returned alone. The serve test
    suite re-checks this end-to-end for every registered model. *)

type t

type cfg = {
  max_batch : int;  (** rows coalesced into one execution *)
  max_wait_us : float;
      (** the longest a batch waits for a request that a declared client
          can still send; 0 never waits *)
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

val with_client : t -> (unit -> 'a) -> 'a
(** [with_client t f] runs [f] as one declared client: from its start
    until it returns or raises, the executor counts one caller that can
    still send a request (the daemon runs each connection's serve loop
    inside it). Undeclared callers bring no company. *)

(** {1 Lifecycle} *)

val start : t -> unit
(** Spawns the executor thread and opens the pipe that wakes it while it
    lingers. Idempotent. *)

val drain : t -> unit
(** Stops admitting, lets the executor flush every queued request, then
    joins it and closes its pipe. Every request admitted before the
    drain gets a real reply; requests submitted after it get
    [draining] errors. *)

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
  s_clients : int;  (** declared clients now ({!with_client}) *)
  s_lingered : int;  (** batches that waited for company *)
  s_linger_ms : float;  (** total time batches spent waiting *)
}

val stats : t -> stats
val coalesce_ratio : stats -> float
(** [rows / batches]; 1.0 means no coalescing happened. *)

val stats_json : t -> Obs.Json.t
val queue_depth : t -> int
