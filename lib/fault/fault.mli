(** Deterministic fault injection for resilience testing.

    A {!plan} is a seeded, replayable schedule of faults: I/O errors
    and short writes in the checkpoint store, NaN/Inf poisoning of
    gradients, allocation failures and delays in the training loop,
    and a SIGKILL of the whole process at a chosen step. Every
    decision is a pure function of the plan's seed and a per-category
    occurrence index (derived with [Prng.fold_in]), so two runs with
    the same plan see exactly the same faults at exactly the same
    points — which is what makes crash-recovery tests reproducible.

    The hooks follow the [lib/obs] discipline: instrumented code pays
    one branch ({!active}) when no plan is installed, and a run with
    no plan (or a plan whose probabilities are all zero) is bit-
    identical to an uninstrumented run — enforced by a property test
    in [test/test_fault.ml]. Injection never consumes the training
    PRNG stream: plans carry their own key.

    This module only {e decides}; the effectful part of each fault
    (raising [Sys_error], truncating a write, poisoning a tensor) is
    performed by the instrumented layer, except {!on_step}, which
    sleeps, raises [Out_of_memory], or SIGKILLs the process itself. *)

type plan

(** {1 Plan construction}

    Plans are parsed from a compact spec string: whitespace- or
    comma-separated [key=value] entries.

    - [io-error=P] — each store I/O operation fails with [Sys_error]
      with probability [P].
    - [short-write=P] — each checkpoint write is truncated partway
      (then fails) with probability [P].
    - [grad-nan=P] / [grad-inf=P] — each gradient tensor passed to the
      optimizer is poisoned with a NaN / infinity with probability [P].
    - [oom=P] — each training step raises [Out_of_memory] (before the
      forward pass) with probability [P].
    - [delay=P:MS] — each training step sleeps [MS] milliseconds with
      probability [P].
    - [kill-at=N] — the process SIGKILLs itself at the start of
      training step [N].
    - [kill-in=LO..HI] — like [kill-at], at a step drawn uniformly
      from [\[LO, HI\]] by the plan's seed (inspect with
      {!kill_step}).

    Example: ["io-error=0.2 short-write=0.1 kill-in=10..40"]. *)

val plan_of_string : seed:int -> string -> (plan, string) result

val seed : plan -> int
val spec_text : plan -> string

val kill_step : plan -> int option
(** The resolved kill step, when the plan has one. *)

val plan_to_json : plan -> string
(** The resolved plan (seed, spec, probabilities, kill step) as one
    JSON object — saved as a CI artifact so a failing chaos run can be
    replayed exactly. *)

(** {1 Installation} *)

val active : unit -> bool
(** Whether a plan is installed — the one branch every hook pays. *)

val install : plan -> unit
(** Install a plan (replacing any previous one) and reset its
    occurrence counters and injection tallies. *)

val clear : unit -> unit
(** Remove the installed plan; {!active} becomes [false]. *)

val current : unit -> plan option

val injected : unit -> (string * int) list
(** Tally of injections performed since {!install}, by category name
    ("io_error", "short_write", "grad_nan", "grad_inf", "oom",
    "delay"), sorted by name. The same tallies are mirrored into
    [lib/obs] counters ("fault/io_error", ...) when observability is
    live, except for injections recorded inside {!capture}.

    The plan's counters and tallies sit behind one mutex, so the hooks
    may be consulted from a background thread (the checkpoint writer)
    while the step thread consults others. *)

val capture : (unit -> 'a) -> 'a * string list
(** [capture f] runs [f] and returns, with its result, the categories
    of the injections [f] recorded on the calling thread, in order.
    Those are not mirrored into [lib/obs], whose tables belong to the
    step thread: the caller hands them back to it for {!publish}. *)

val publish : string list -> unit
(** Mirror captured injections into the [lib/obs] counters. Call on
    the thread that owns [lib/obs]. *)

(** {1 Hooks}

    Call only under an {!active} check. *)

val on_io : op:[ `Read | `Write ] -> path:string -> unit
(** Consult the plan for one store I/O operation.
    @raise Sys_error when an I/O fault is injected. *)

val short_write_len : path:string -> full:int -> int option
(** [short_write_len ~path ~full] is [Some n] ([0 <= n < full]) when
    this checkpoint write should stop after [n] of its [full] bytes
    (the store then raises [Sys_error], leaving a truncated temp
    file). *)

val grad_poison : name:string -> float option
(** Consult the plan for one gradient tensor; [Some v] means poison an
    element with [v] (NaN or infinity). *)

val on_step : step:int -> unit
(** Consult the plan at the start of training step [step]. May sleep
    (delay fault), raise [Out_of_memory] (allocation fault), or
    SIGKILL the process (kill fault — uncatchable by design: recovery
    must come from durable checkpoints, not an exception handler). *)
