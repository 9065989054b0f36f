(** Durable training state: rotated checkpoints that make a training
    run resumable {e bit-exactly} after a crash.

    A training checkpoint is an ordinary {!Store.t} image (format v2:
    checksummed, atomically written, rotated — see [Store]) holding
    the model parameters plus reserved ["__"]-prefixed tensors that
    encode everything else one step depends on: the step index, the
    optimizer moments and counters, and the guard's retry/skip
    counters (the retry counter feeds [Guard.active_key], so it is
    part of the PRNG stream). Resuming from step [s] therefore
    replays steps [s..] with exactly the state — every bit of it —
    the interrupted run had, and a SIGKILLed-and-resumed run ends
    with parameters bit-identical to an uninterrupted one (enforced
    by [test/test_chaos.ml] and the CI chaos-smoke job).

    [Train] writes its periodic checkpoints through a background
    {!writer}; {!save} is the synchronous write, used for rollback
    checkpoints and by callers outside the training loop. *)

type cfg = {
  dir : string;  (** checkpoint directory (rotated [ckpt.N] files) *)
  every : int;  (** save after every [every]-th committed step *)
  keep : int;  (** rotation depth *)
  retries : int;  (** transient-I/O retry budget per save *)
  backoff_ms : float;  (** deterministic backoff base (doubles per retry) *)
}

val cfg :
  ?every:int -> ?keep:int -> ?retries:int -> ?backoff_ms:float -> string -> cfg
(** Defaults: every 25 steps, keep 3, 2 retries, 5 ms backoff. *)

val save :
  cfg -> step:int -> store:Store.t -> optim:Optim.t -> guard:Guard.t -> unit
(** Write one rotated checkpoint recording that steps [0..step-1] are
    committed ([step] is the next step to run).
    @raise Sys_error when the write fails after the retry budget. *)

(** {1 Background writer}

    Takes checkpoint I/O off the training step. The step thread
    snapshots the state and serializes it; a systhread runs the
    durable write (temp file, fsync, rename, directory fsync, prune)
    and is joined before the next write starts. At most one write is
    in flight, and writes happen in submission order, so the sequence
    of store I/O — and every [Fault] decision on it — is that of
    calling {!save} in the same places. The writer records nothing in
    [Obs] itself: its retries and injected faults are recorded by the
    step thread when it joins the write. *)

type writer

val writer : cfg -> writer
(** An idle writer for [cfg]. *)

val submit :
  writer -> step:int -> store:Store.t -> optim:Optim.t -> guard:Guard.t -> unit
(** {!drain}, then snapshot and serialize the state on the calling
    thread (what {!save} would write) and start a thread that writes
    it. Returns before the image is durable.
    @raise Sys_error from the {e previous} write, via {!drain}. *)

val drain : writer -> unit
(** Join the write in flight, if any, record its retries and
    injections, and re-raise its error.
    @raise Sys_error when that write failed after its retry budget. *)

val yield : writer -> unit
(** Call once per training step: until the write in flight is joined,
    offer the writer thread the runtime lock ([Thread.yield]) so it is
    not held back to the runtime's 50 ms tick after each syscall. *)

val close : writer -> unit
(** Join the write in flight, if any. Never raises: its outcome is
    dropped, so call {!drain} first when its error must surface. *)

type resumed = { step : int;  (** next step to run *) path : string }

val load_into :
  cfg -> store:Store.t -> optim:Optim.t -> guard:Guard.t -> resumed option
(** Load the newest readable checkpoint from [cfg.dir] into the given
    training state: parameters into [store] (registering any the
    store lacks), moments into [optim], counters into [guard].
    [None] when the directory has no checkpoints (fresh start).
    @raise Store.Corrupt_checkpoint when checkpoints exist but none
    loads. *)
