(** Mutable parameter stores and per-step parameter frames.

    A {!t} owns the current tensor value of every learned parameter.
    Each optimization step opens a {!Frame.t}, which hands out fresh AD
    leaf nodes for the parameters an objective touches; after
    [Ad.backward], the frame reports each leaf's accumulated gradient
    and the optimizer writes updated tensors back into the store.
    Rebuilding leaves every step keeps gradients from leaking across
    steps (see [Ad]). *)

type t

val create : unit -> t

val ensure : t -> string -> (unit -> Tensor.t) -> unit
(** Register a parameter if absent (the initializer runs at most
    once). *)

val mem : t -> string -> bool
val tensor : t -> string -> Tensor.t
(** @raise Not_found on unregistered names. *)

val set : t -> string -> Tensor.t -> unit
(** @raise Not_found on unregistered names (register with {!ensure}). *)

val names : t -> string list
(** Registration order. *)

val parameter_count : t -> int
(** Total number of scalar parameters. *)

val copy : t -> t
(** Deep copy: the copied tensors share no buffers with the original,
    so mutating either store (or, with an in-place backend, either
    tensor) leaves the other intact. Used for checkpoint snapshots and
    for ablations that fork training. *)

val restore : t -> from:t -> unit
(** [restore t ~from] writes every parameter of [from] back into [t]
    (deep-copied), registering any name [t] lacks. Parameters of [t]
    absent from [from] are left at their current values. *)

(** {1 Persistence}

    Binary checkpoints with a versioned header ("PPVISTOR"). The
    current writer emits format version 2: every tensor record carries
    a CRC-32, and the file ends with a whole-file CRC-32, so
    truncation and bit rot are detected before any tensor is trusted.
    Version-1 files (PR 1's format, no checksums) remain readable.
    Floats are stored as IEEE-754 bit patterns, so a save/load
    round-trip is bit-exact (including NaNs and infinities).

    Saves are {e atomic and durable}: the image is written to a temp
    file in the destination directory, flushed, fsync'd, and renamed
    into place — a crash mid-save leaves the previous checkpoint
    intact, and a full disk raises [Sys_error] instead of silently
    truncating. All persistence entry points consult the [Fault]
    injection hooks (one branch when no plan is installed). *)

exception Corrupt_checkpoint of string
(** Raised by {!load} on bad magic, an unsupported version, a
    checksum mismatch, truncation, or any length field inconsistent
    with the file's actual size. *)

val save : ?retries:int -> ?backoff_ms:float -> t -> string -> unit
(** Write all parameters, in registration order, atomically to a
    file. [retries] (default 0) retries transient [Sys_error]
    failures with a deterministic exponential backoff starting at
    [backoff_ms] (default 10). Each retry is recorded by
    {!note_retry}.
    @raise Sys_error when the write still fails after the retries. *)

val serialize : t -> string
(** The format-2 image {!save} writes, built in one buffer of its
    exact size. *)

val note_retry : string -> unit
(** Record one retried write: bump the ["store/io_retries"] counter and
    emit the message as an [Obs.Fault] message. The default
    [on_retry] of {!write_rotated}. *)

val save_v1 : t -> string -> unit
(** Write the legacy (version 1, checksum-free) format — kept so the
    backward-compatibility path stays testable. *)

val load : string -> t
(** Read a checkpoint written by {!save} (or a v1 file) into a fresh
    store.
    @raise Corrupt_checkpoint if the file is not a valid checkpoint.
    @raise Sys_error if the file cannot be opened. *)

(** {1 Rotated checkpoints}

    A checkpoint directory holds [ckpt.N] files (monotonically
    increasing [N]). Each is fsync'd, renamed into place and followed
    by a directory fsync, so a present [ckpt.N] is complete unless it
    was damaged later; the newest readable one is the directory's
    state. Temp files ([ckpt.N.tmp.PID]) and any other names, such as
    the [latest] pointer older versions wrote, are ignored. *)

val save_rotated :
  ?keep:int -> ?retries:int -> ?backoff_ms:float -> t -> dir:string -> string
(** Write the next [ckpt.N] in [dir] (created if missing) and prune
    all but the newest [keep] (default 3) checkpoints. Returns the
    path written. Two fsyncs: the file's and the directory's.
    @raise Sys_error when the write fails after the retries. *)

val write_rotated :
  ?keep:int ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?on_retry:(string -> unit) ->
  string ->
  dir:string ->
  string
(** {!save_rotated} for an image already built by {!serialize}. Each
    retried attempt's message goes to [on_retry] (default
    {!note_retry}). Apart from [on_retry], it touches only the
    directory and the [Fault] plan, so it may run on a thread other
    than the one that owns [Obs] when [on_retry] just collects. *)

val newest_checkpoint : string -> string option
(** The path of the highest-numbered [ckpt.N] in a directory (one
    [readdir], no file opened), or [None]. *)

(** Why [load_latest] failed, split so callers can give an accurate
    hint: a missing directory and an empty one mean "nothing trained
    yet, start fresh", while corrupt candidates mean training state
    exists but cannot be read — silently starting over would discard
    it. *)
type latest_error =
  | No_directory of string  (** the directory does not exist *)
  | No_checkpoints of string  (** it exists but holds no [ckpt.N] *)
  | All_corrupt of { dir : string; tried : int }
      (** every candidate failed to load *)

val latest_error_message : latest_error -> string
(** One-line diagnosis plus a hint for the recoverable cases, e.g.
    ["ckpt: checkpoint directory does not exist (hint: a checkpointed
    run creates it; nothing to resume yet)"]. *)

val load_latest_result : string -> (t * string, latest_error) result
(** Load the newest readable checkpoint in a directory, trying every
    [ckpt.N] newest-first.
    Corrupt or unreadable candidates are skipped with an explanatory
    [Obs.message] (and a ["store/fallbacks"] counter bump). Never
    raises; the error cases are typed so an empty or missing directory
    can be reported as "nothing to resume" rather than with a message
    that presumes a loadable sibling exists. *)

val load_latest : string -> (t * string) option
(** [load_latest_result] with the historical calling convention:
    [None] when the directory is missing or holds no checkpoints.
    @raise Corrupt_checkpoint when candidates exist but none loads —
    starting fresh silently would discard training the caller may
    still want to salvage by hand. *)

module Frame : sig
  type store := t
  type t

  val make : store -> t

  val make_detached : store -> t
  (** A frame whose lookups all return constant (stop-gradient) views
      and record nothing — for "old parameter" copies in wake-sleep
      objectives. *)

  val detach : t -> t
  (** The detached view of an existing frame's store. *)

  val get : t -> string -> Ad.t
  (** The leaf node for a parameter — one node per name per frame, so
      repeated lookups share gradients. @raise Not_found if
      unregistered. *)

  val get_detached : t -> string -> Ad.t
  (** A constant (stop-gradient) view of the parameter — used for
      "old parameters" in wake-sleep style objectives. *)

  val params : t -> (string * Ad.t) list
  (** Every leaf handed out by {!get} so far (for [Adev.grad]). *)

  val grads : t -> (string * Tensor.t) list
  (** Gradients accumulated in the frame's leaves (call after
      [Ad.backward]). *)
end
