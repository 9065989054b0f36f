(** Stochastic gradient optimizers over a parameter {!Store.t}. *)

type t

val sgd : lr:float -> t

val adam :
  ?beta1:float -> ?beta2:float -> ?eps:float -> lr:float -> unit -> t
(** ADAM with the usual defaults (0.9, 0.999, 1e-8). *)

type direction = Ascend | Descend

val step :
  ?clip_norm:float ->
  ?on_skip:(string -> Tensor.t -> unit) ->
  t ->
  direction ->
  Store.t ->
  (string * Tensor.t) list ->
  unit
(** Apply one update from named gradients. [Ascend] maximizes
    (variational lower bounds), [Descend] minimizes (losses).

    Gradients whose tensors contain non-finite entries are never
    applied (a guard against the occasional divergent REINFORCE
    sample) — but the skip is {e reported}: [on_skip] fires once per
    skipped parameter with its name and raw gradient, and the
    optimizer's {!skipped} counter is incremented, so callers (and the
    [Guard] layer) can see exactly what was dropped.

    [clip_norm], when given, rescales the remaining (finite) gradients
    jointly so their {!Tensor.global_norm} is at most [clip_norm],
    before any moment accumulation. *)

val skipped : t -> int
(** Total number of per-parameter gradient skips since creation (or
    the last {!reset}/{!restore}). *)

val reset : t -> unit
(** Clear moment estimates, step counters, and the skip counter. *)

(** {1 Snapshots}

    Deep snapshots of optimizer state (ADAM moments, step counters,
    skip count), used by the [Guard] checkpoint/rollback machinery so
    a retried step replays with the exact optimizer state it had at
    the snapshot. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Overwrite the optimizer's state with the snapshot's. The snapshot
    may be restored any number of times. *)

(** {1 Durable state}

    Tensor-encoded optimizer state for crash-exact resume (the
    [Persist] layer stores these alongside the parameters in rotated
    checkpoints). The encoding is bit-exact: an export/import
    round-trip reproduces every moment bit and step counter. *)

val export_state : t -> (string * Tensor.t) list
(** ADAM moments and step counters as named tensors (["m.<param>"],
    ["v.<param>"], ["t.<param>"], plus ["skipped"]). Empty moments
    (SGD, or before the first step) export only ["skipped"]. The
    moment tensors are the live ones, which {!step} updates in place:
    read them before the next step. *)

val import_state : t -> (string * Tensor.t) list -> unit
(** Replace the optimizer's state with a previously exported one.
    Entries with unrecognized names are ignored. *)
