(** Runtime observability: tracing spans, metrics, and per-site
    gradient-estimator statistics.

    The library is dependency-free (only the OCaml distribution's
    [unix] for the clock) and sits below every other ppvi layer, so
    any module — the ADEV estimators, the generative-program
    interpreters, the training loops, the CLI — can feed it without
    creating cycles.

    Three data planes, one global recorder:

    - {b Spans}: named, timed regions tagged with a {!kind}. Every
      span updates an aggregate (count, total wall time, allocated
      bytes); individual span {e events} additionally land in an
      in-memory ring buffer and, when a JSONL sink is configured, in
      the trace file — subject to a per-kind sampling interval.
    - {b Metrics}: monotone counters, last-value gauges, and
      log-scale (power-of-two bucket) histograms.
    - {b Estimator statistics}: a per-(address, strategy) Welford
      accumulator over the {e score coefficient} of each gradient
      estimator — the stochastic scalar that multiplies
      [grad log p] in the surrogate loss. REINFORCE records the
      continuation's primal value (minus the baseline when one is
      used), MVD records each coupling's weighted difference, and the
      pathwise/exact strategies (REPARAM, ENUM) record 0, so ranking
      sites by coefficient variance surfaces exactly the
      score-function sites whose noise dominates the gradient. See
      docs/OBSERVABILITY.md for the interpretation guide.

    {b Determinism.} No function in this interface consumes PRNG
    keys, mutates AD state, or otherwise influences the computation
    being observed: enabling or disabling observability never changes
    a seeded run's outputs (enforced by a property test in
    [test/test_obs.ml]). When disabled, the hooks compiled into hot
    loops reduce to a single flag check with no allocation — guard
    any argument computation behind {!live}. *)

(** {1 Span kinds} *)

type kind =
  | Simulate  (** drawing from a primitive's sampler *)
  | Density  (** evaluating a primitive's log density *)
  | Grad  (** surrogate construction / backward pass *)
  | Optim  (** optimizer updates *)
  | Guard  (** anomaly scanning and policy dispatch *)
  | Preflight  (** static analysis before training *)
  | Step  (** one whole optimization step *)
  | Fault  (** fault injection, checkpoint recovery, retries *)
  | Other

val kind_name : kind -> string
(** Stable lowercase tag used in event lines ("simulate", "density",
    "grad", "optim-step", "guard", "preflight", "step", "fault",
    "other"). *)

val all_kinds : kind list

(** {1 Configuration} *)

val live : unit -> bool
(** Whether recording is enabled on this domain. The one check every
    hook performs; [false] is the initial state, and [false] under
    {!suppress} regardless of {!configure}. *)

val suppress : (unit -> 'a) -> 'a
(** Run a thunk with recording suppressed on the current domain:
    {!live} returns [false] and every emission hook is a no-op inside
    it. Used by the sharded training driver (the recorder's tables are
    owned by the coordinating domain) and around checkpoint-segment
    replays (re-executed instrumentation must not double-report). The
    instrumentation contract — enabling observability never changes a
    seeded run — makes suppression bit-transparent. *)

val configure :
  ?enabled:bool ->
  ?sink:[ `Null | `Console | `File of string ] ->
  ?ring_capacity:int ->
  ?sample_every:(kind * int) list ->
  unit ->
  unit
(** Reconfigure the recorder. [enabled] flips {!live}. [sink] selects
    where events are routed: [`Console] (the default) prints messages
    to stderr and keeps span events in memory only; [`File path]
    opens [path] and writes one JSON object per line (the previous
    file sink, if any, is flushed and closed); [`Null] drops
    everything. [ring_capacity] resizes the in-memory event buffer
    (default 4096, clearing it). [sample_every] sets, per kind, the
    event sampling interval: [n] means only every [n]-th span of that
    kind becomes an event (aggregates always update; default 1).
    @raise Sys_error if the trace file cannot be opened. *)

val reset : unit -> unit
(** Clear all aggregates, metrics, estimator statistics, and buffered
    events, and restart the relative clock. Does not touch the sink
    or the enabled flag. *)

val shutdown : unit -> unit
(** Flush a final metrics snapshot to a file sink, close it, restore
    the [`Console] sink, and disable recording. *)

(** {1 Spans} *)

val span : kind -> string -> (unit -> 'a) -> 'a
(** [span kind name f] times [f ()], tracking nesting depth and
    allocation; the span is recorded even when [f] raises. When
    {!live} is false this is exactly [f ()]. The closure makes this
    form convenient for per-step (cold) paths; per-site hot paths use
    {!start}/{!stop} to stay allocation-free when disabled. *)

val start : unit -> float
(** The current clock value, to be passed to {!stop}. Call only under
    a {!live} check. *)

val stop : ?alloc:float -> kind -> string -> float -> unit
(** [stop kind name t0] records a span that began at [t0] (from
    {!start}) and ends now. [alloc] optionally reports allocated
    bytes. Call only under a {!live} check. *)

val message : kind -> string -> unit
(** Route a human-readable line through the current sink {e even when
    recording is disabled}: a [`Console] sink prints it to stderr
    (the legacy [eprintf] behavior), a [`File] sink writes a ["msg"]
    event (keeping stderr machine-clean under [--trace]), a [`Null]
    sink drops it. *)

(** {1 Metrics} *)

val incr : ?by:int -> string -> unit
(** Bump a counter. No-op unless {!live}. *)

val gauge : string -> float -> unit
(** Set a gauge to its latest value. No-op unless {!live}. *)

val hist : string -> float -> unit
(** Add an observation to a log-scale histogram (power-of-two
    buckets; count/sum/min/max are tracked exactly). No-op unless
    {!live}. *)

val counter_value : string -> int
(** Current value of a counter (0 if never bumped). *)

val gauge_value : string -> float
(** Current value of a gauge (nan if never set). *)

(** {1 Estimator statistics} *)

val estimator : address:string -> strategy:string -> float -> unit
(** Feed one score-coefficient observation into the Welford
    accumulator for [(address, strategy)]. No-op unless {!live}. *)

(** {1 Reports} *)

type span_row = {
  sr_name : string;
  sr_kind : kind;
  sr_count : int;
  sr_total_ms : float;
  sr_mean_ms : float;
  sr_alloc_mb : float;  (** total allocated MB, where measured *)
}

val span_rows : unit -> span_row list
(** Aggregated spans, sorted by total time descending. *)

type est_row = {
  er_address : string;
  er_strategy : string;
  er_count : int;
  er_mean : float;
  er_variance : float;  (** unbiased sample variance of the coefficient *)
  er_snr : float;  (** |mean| / stddev; 0 when both vanish, inf when
                       the mean is nonzero with zero spread *)
}

val estimator_rows : unit -> est_row list
(** Per-site estimator statistics, noisiest (highest coefficient
    variance) first; ties broken by sample count descending. *)

type hist_row = {
  hr_name : string;
  hr_count : int;
  hr_mean : float;
  hr_min : float;
  hr_max : float;
}

val counters : unit -> (string * int) list
val gauges : unit -> (string * float) list
val hist_rows : unit -> hist_row list

val report_human : Format.formatter -> unit
(** Print the span, metric, and estimator tables. *)

val report_json : ?meta:(string * string) list -> unit -> string
(** The same data as one JSON object (suitable for [--json]). [meta]
    adds string fields after ["schema_version"], such as the kernel
    body that produced the timings. *)

val flush : unit -> unit
(** Write a snapshot of counters, gauges, histograms, and estimator
    rows to the file sink (one event line each) and flush it. No-op
    for other sinks. *)

(** {1 In-memory event recorder} *)

type event =
  | Span_ev of {
      name : string;
      kind : kind;
      depth : int;
      t : float;  (** seconds since {!reset} (or program start) *)
      dur_ms : float;
      alloc_b : float;
    }
  | Msg_ev of { kind : kind; text : string; t : float }

val recent : unit -> event list
(** Buffered events, oldest first (at most the ring capacity). *)

(** {1 JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Serialize one JSON value (non-finite numbers become [null]). *)

  val parse : string -> (t, string) result
  (** Parse one complete JSON value (trailing whitespace allowed). *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

val validate_jsonl : string -> (int, string) result
(** Parse every non-empty line of the file at the given path as JSON;
    [Ok n] returns the number of event lines, [Error msg] names the
    first offending line. A partial trailing line in a file that does
    not end with a newline — a recorder killed mid-write — is skipped,
    not an error; a malformed but newline-terminated line still fails
    (that is schema drift). Used by [ppvi trace-lint] and CI. *)
