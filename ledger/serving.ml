(* The two serving workloads: a spawned [ppvi serve] daemon driven in a
   closed loop (each connection sends its next request when the reply
   to the previous one arrives, as [ppvi client] callers do), next to
   a hand-coded comparator and an in-process [Batcher] pass over the
   same request sequence. *)

open Common

type mix =
  | Chain  (** score / elbo alternating: density work the batcher stacks *)
  | Rotating  (** score, elbo, sample, grad: half of it scalar AD *)

type workload = {
  conns : int;
  mix : mix;
  warmup : int;  (** untimed requests per connection *)
  timed : int;  (** timed requests per connection *)
}

let chain_2c = { conns = 2; mix = Chain; warmup = 200; timed = 1500 }
let mixed_1c = { conns = 1; mix = Rotating; warmup = 200; timed = 1500 }

let shrink ~smoke w = if smoke then { w with warmup = 4; timed = 20 } else w

let model = "chain"

(* Global request index [i] under [seed] is always the same request. *)
let request w ~seed i =
  match w.mix with
  | Chain -> Serve.nth_request ~model ~seed i
  | Rotating -> (
    let derived = (seed * 1_000_003) + i in
    match i mod 4 with
    | 0 -> Serve.nth_request ~model ~seed (2 * i)
    | 1 -> Serve.nth_request ~model ~seed ((2 * i) + 1)
    | 2 -> Proto.Sample { model; seed = derived }
    | _ -> Proto.Grad { model; seed = derived })

let per_conn w = w.warmup + w.timed
let total w = w.conns * per_conn w

(* Connection [c]'s [r]-th request has index [r * conns + c]. *)
let index w ~conn r = (r * w.conns) + conn

(* ------------------------------------------------------------------ *)
(* Replies and outcomes, compared bit for bit *)

let outcome_of_reply = function
  | Proto.R_value v -> Batcher.O_value v
  | Proto.R_sample { trace; logq } -> Batcher.O_sample (trace, logq)
  | Proto.R_grad { value; grads } -> Batcher.O_grad (value, grads)
  | Proto.R_error { code; msg } -> Batcher.O_error (code, msg)
  | _ -> Batcher.O_error ("unexpected", "not a work reply")

let same_list same a b = List.length a = List.length b && List.for_all2 same a b

let same_outcome a b =
  match (a, b) with
  | Batcher.O_value x, Batcher.O_value y -> same_bits x y
  | Batcher.O_sample (ta, qa), Batcher.O_sample (tb, qb) ->
    same_bits qa qb
    && same_list (fun (na, va) (nb, vb) -> na = nb && Proto.wire_value_equal va vb) ta tb
  | Batcher.O_grad (va, ga), Batcher.O_grad (vb, gb) ->
    same_bits va vb && same_list (fun (na, xa) (nb, xb) -> na = nb && same_bits xa xb) ga gb
  | _ -> false

let is_error = function Batcher.O_error _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The daemon *)

type daemon = { pid : int; sock : string; setup : float }

(* Spawn [ppvi serve] and wait for its first health reply; the wait is
   the daemon's set-up time. The socket path is relative to the
   working directory both processes share. *)
let start_daemon ~ppvi =
  let sock = work_path "d" ^ ".sock" in
  let t0 = now () in
  let pid = spawn ppvi [ "serve"; "--socket"; sock ] in
  let rec probe () =
    match Serve.Client.connect (`Unix sock) with
    | conn ->
      let reply = Serve.Client.call conn Proto.Health in
      let setup = now () -. t0 in
      Serve.Client.close conn;
      (match reply with
      | Proto.R_health _ -> ()
      | _ -> failwith "daemon: unexpected health reply");
      setup
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () -. t0 < 30. ->
      Thread.delay 2e-4;
      probe ()
  in
  { pid; sock; setup = probe () }

(* SIGTERM drains the daemon; it must exit cleanly. [ppvi serve]
   installs its SIGTERM handler only after it starts answering, and a
   SIGTERM that arrives before would kill it outright, so wait until
   /proc shows the handler (SIGTERM is signal 15 on Linux). Returns the
   daemon's peak resident set. *)
let stop_daemon t d =
  let t0 = now () in
  while (not (catches_signal d.pid 15)) && now () -. t0 < 10. do
    Thread.delay 1e-4
  done;
  let rss = peak_rss_mb d.pid in
  Unix.kill d.pid Sys.sigterm;
  check t (reap d.pid = Unix.WEXITED 0) "daemon did not drain cleanly";
  rss

let stats d =
  let conn = Serve.Client.connect (`Unix d.sock) in
  let reply = Serve.Client.call conn Proto.Stats in
  Serve.Client.close conn;
  match reply with Proto.R_stats j -> j | _ -> failwith "daemon: unexpected stats reply"

(* ------------------------------------------------------------------ *)
(* Closed-loop load *)

(* A reusable barrier, so the connections start their timed requests
   together. *)
let barrier n =
  let m = Mutex.create () and c = Condition.create () and waiting = ref 0 in
  fun () ->
    Mutex.lock m;
    incr waiting;
    if !waiting >= n then Condition.broadcast c
    else while !waiting < n do Condition.wait c m done;
    Mutex.unlock m

type pass = {
  outcomes : Batcher.outcome array;  (** by request index *)
  latencies : float list;  (** timed requests, seconds *)
  wall : float;  (** seconds of the timed phase *)
}

(* Run [call] closed-loop on [w.conns] threads, one per connection.
   [call conn_state req] performs one request. *)
let drive w ~seed ~connect ~call ~close =
  let outcomes = Array.make (total w) (Batcher.O_error ("lost", "no reply")) in
  let lat = Array.make (w.conns * w.timed) nan in
  let sync = barrier w.conns in
  let t_start = ref infinity and t_stop = ref 0. in
  let clock = Mutex.create () in
  let worker conn () =
    let synced = ref false in
    let start () =
      synced := true;
      sync ()
    in
    match connect () with
    | exception e ->
      Printf.eprintf "ledger: connection failed: %s\n%!" (Printexc.to_string e);
      start ()
    | st ->
      (try
         for r = 0 to per_conn w - 1 do
           if r = w.warmup then begin
             start ();
             Mutex.lock clock;
             t_start := Float.min !t_start (now ());
             Mutex.unlock clock
           end;
           let i = index w ~conn r in
           let req = request w ~seed i in
           let t0 = now () in
           let out = call st req in
           let dt = now () -. t0 in
           outcomes.(i) <- out;
           if r >= w.warmup then lat.(((r - w.warmup) * w.conns) + conn) <- dt
         done
       with e ->
         Printf.eprintf "ledger: connection died: %s\n%!" (Printexc.to_string e);
         if not !synced then start ());
      Mutex.lock clock;
      t_stop := Float.max !t_stop (now ());
      Mutex.unlock clock;
      close st
  in
  List.iter Thread.join (List.init w.conns (fun c -> Thread.create (worker c) ()));
  { outcomes;
    latencies = List.filter Float.is_finite (Array.to_list lat);
    wall = !t_stop -. !t_start }

type session = { pass : pass; stats : Obs.Json.t; rss : float; d_setup : float }

let session t w ~ppvi ~seed ?spans ~run () =
  let d = start_daemon ~ppvi in
  let call conn req =
    let go () = outcome_of_reply (Serve.Client.call conn req) in
    match spans with
    | Some rc -> Spans.within rc ~run "serve.request" go
    | None -> go ()
  in
  let pass =
    drive w ~seed
      ~connect:(fun () -> Serve.Client.connect (`Unix d.sock))
      ~call ~close:Serve.Client.close
  in
  let stats = stats d in
  { pass; stats; rss = stop_daemon t d; d_setup = d.setup }

type local = {
  l_pass : pass;
  stage : float;  (** seconds in [Batcher.register_builtins] *)
  minor_words : float;
  major_words : float;
  nodes : int;  (** AD nodes built *)
}

(* The same request sequence through an in-process [Batcher] with the
   daemon's default knobs, on the same number of threads, with no
   socket. Staging runs from a cold plan cache. *)
let in_process w ~seed ?spans () =
  Compile.reset_cache ();
  let b = Batcher.create Batcher.default_cfg in
  let t0 = now () in
  Batcher.register_builtins b;
  let stage = now () -. t0 in
  Batcher.start b;
  let gc0 = Gc.quick_stat () and n0 = Ad.node_count () in
  let call () req =
    let go () = Batcher.submit b req in
    match spans with
    | Some rc -> Spans.within rc ~run:(-1) "batcher.submit" go
    | None -> go ()
  in
  let pass = drive w ~seed ~connect:ignore ~call ~close:ignore in
  Batcher.drain b;
  let gc1 = Gc.quick_stat () in
  { l_pass = pass;
    stage;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    nodes = Ad.node_count () - n0 }

(* Every reply must be a value, and identical to the reference's. *)
let check_pass t ~what ~reference p =
  attempt t (Array.length p.outcomes);
  let errors = Array.fold_left (fun n o -> if is_error o then n + 1 else n) 0 p.outcomes in
  fail t ~bad:errors (what ^ ": error or missing replies");
  let differ = ref 0 in
  Array.iteri
    (fun i o -> if not (is_error o || same_outcome o reference.(i)) then incr differ)
    p.outcomes;
  fail t ~bad:!differ (what ^ ": replies differ from the first session's")

let cold_setup t ~ppvi =
  let d = start_daemon ~ppvi in
  ignore (stop_daemon t d);
  d.setup

(* The negated mean of the ELBO estimates the workload asked for. *)
let loss w ~seed reference =
  let elbos = ref [] in
  Array.iteri
    (fun i o ->
      match (request w ~seed i, o) with
      | Proto.Elbo _, Batcher.O_value v -> elbos := v :: !elbos
      | _ -> ())
    reference;
  -.mean !elbos

let latencies ss = List.concat_map (fun s -> s.pass.latencies) ss

(* ------------------------------------------------------------------ *)
(* End-to-end run (tracing off) *)

(* The timed requests answered by the hand-coded comparator on one
   thread, in index order; returns the wall time. *)
let hand_pass w ~seed =
  let reqs =
    List.init (w.conns * w.timed) (fun k -> request w ~seed ((w.warmup * w.conns) + k))
  in
  let t0 = now () in
  List.iter (fun r -> ignore (Hand.chain_value r)) reqs;
  now () -. t0

(* Score replies must match the hand-coded joint density, an
   independent reference for the daemon's batched evaluation. *)
let check_scores t w ~seed reference =
  let bad = ref 0 and n = ref 0 in
  Array.iteri
    (fun i o ->
      match (request w ~seed i, o) with
      | (Proto.Score _ as req), Batcher.O_value v ->
        incr n;
        let want = Hand.chain_value req in
        if Float.abs (v -. want) > 1e-9 *. Float.max 1. (Float.abs want) then incr bad
      | _ -> ())
    reference;
  attempt t !n;
  fail t ~bad:!bad "score replies differ from the hand-coded density"

(* Daemon sessions alternate with hand-coded passes over the timed
   requests until the time is up, each session after a cold start, so
   the set-up samples spread over the run. Timings come from the
   least-disturbed session, which filters bursts of interference from
   other tenants of the host; the tail needs every sample; the overhead
   ratio compares each session with the pass that follows it, so host
   load cancels. *)
let e2e w ~smoke ~ppvi ~seed ~seconds t =
  let w = shrink ~smoke w in
  let t_end = now () +. seconds in
  let rec loop run acc =
    if run > 0 && now () >= t_end then List.rev acc
    else
      let c = cold_setup t ~ppvi in
      let s = session t w ~ppvi ~seed ~run () in
      loop (run + 1) ((c, s, hand_pass w ~seed) :: acc)
  in
  let runs = loop 0 [] in
  let pairs = List.map (fun (_, s, hand) -> (s, hand)) runs in
  let ss = List.map fst pairs in
  let cold =
    List.map (fun (c, _, _) -> c) runs
    @ List.init
        (Stdlib.max 0 (cold_starts ~smoke - List.length runs))
        (fun _ -> cold_setup t ~ppvi)
  in
  let reference = (List.hd ss).pass.outcomes in
  List.iter (fun s -> check_pass t ~what:"daemon session" ~reference s.pass) ss;
  check_pass t ~what:"in-process batcher" ~reference (in_process w ~seed ()).l_pass;
  check_scores t w ~seed reference;
  [ ("setup_s", median (cold @ List.map (fun s -> s.d_setup) ss), "s");
    ("time_to_result_s", minimum (List.map (fun s -> s.pass.wall) ss), "s");
    ("latency_p50_ms", 1000. *. minimum (List.map (fun s -> median s.pass.latencies) ss), "ms");
    ("latency_p99_ms", 1000. *. quantile (latencies ss) 0.99, "ms");
    ("overhead_ratio", median (List.map (fun (s, hand) -> s.pass.wall /. hand) pairs), "ratio");
    ("loss_nats", loss w ~seed reference, "nats");
    ("peak_rss_mb", median (List.map (fun s -> s.rss) ss), "MB") ]

(* ------------------------------------------------------------------ *)
(* Traced run *)

let stat name j =
  match Obs.Json.member name j with Some (Obs.Json.Num f) -> f | _ -> nan

(* Time the client-side codec over the workload's own frames, apart
   from the socket: encoding every request, decoding every reply. *)
let codec w ~seed rc reference =
  let n = Array.length reference in
  let reqs =
    List.init n (fun i -> { Proto.id = i; deadline_ms = None; req = request w ~seed i })
  in
  let reply_of = function
    | Batcher.O_value v -> Proto.R_value v
    | Batcher.O_sample (trace, logq) -> Proto.R_sample { trace; logq }
    | Batcher.O_grad (value, grads) -> Proto.R_grad { value; grads }
    | Batcher.O_error (code, msg) -> Proto.R_error { code; msg }
  in
  let frames =
    Array.to_list
      (Array.mapi
         (fun i o -> Obs.Json.to_string (Proto.encode_reply { Proto.rid = i; reply = reply_of o }))
         reference)
  in
  Spans.within rc ~run:(-2) "proto.encode" (fun () ->
      List.iter (fun e -> ignore (Obs.Json.to_string (Proto.encode_request e))) reqs);
  let decoded =
    Spans.within rc ~run:(-2) "proto.decode" (fun () ->
        List.map
          (fun s -> Result.bind (Obs.Json.parse s) Proto.decode_reply)
          frames)
  in
  List.for_all2
    (fun d o ->
      match d with
      | Ok { Proto.reply; _ } -> same_outcome (outcome_of_reply reply) o
      | Error _ -> false)
    decoded (Array.to_list reference)

let traced w ~smoke ~ppvi ~seed ~seconds ~spans_path t =
  let w = shrink ~smoke w in
  let rc = Spans.create () in
  let local = in_process w ~seed ~spans:rc () in
  (* Untraced and traced sessions alternate; the first of each pair
     gives the latency without tracing. *)
  let t_end = now () +. seconds in
  let rec loop run plain traced =
    if run > 0 && now () >= t_end then (List.rev plain, List.rev traced)
    else
      let p = session t w ~ppvi ~seed ~run () in
      let q = session t w ~ppvi ~seed ~spans:rc ~run () in
      loop (run + 1) (p :: plain) (q :: traced)
  in
  let plain, traced = loop 0 [] [] in
  let reference = (List.hd plain).pass.outcomes in
  List.iter (fun s -> check_pass t ~what:"daemon session" ~reference s.pass) (plain @ traced);
  check_pass t ~what:"in-process batcher" ~reference local.l_pass;
  check_scores t w ~seed reference;
  check t (codec w ~seed rc reference) "codec round trip changed a reply";
  Spans.write rc spans_path;
  check t (Result.is_ok (Obs.validate_jsonl spans_path)) "the span file does not lint";
  let self = Spans.self_by_name (Spans.all rc) in
  let n = float_of_int (total w) in
  let submit_p50 = median local.l_pass.latencies in
  let p50 = median (latencies plain) in
  let st = (List.hd traced).stats in
  let rows = stat "rows" st and batches = stat "batches" st in
  let density = stat "vectorized_rows" st +. stat "scalar_rows" st in
  [ ("ad.tape_nodes", float_of_int local.nodes /. n, "count");
    ("compile.stage_ms", 1000. *. local.stage, "ms");
    ("gc.minor_kw", local.minor_words /. 1000. /. n, "kwords");
    ("gc.major_kw", local.major_words /. 1000. /. n, "kwords");
    ("proto.encode_us", 1e6 *. Spans.self_of self "proto.encode" /. n, "us");
    ("proto.decode_us", 1e6 *. Spans.self_of self "proto.decode" /. n, "us");
    ("batcher.submit_p50_ms", 1000. *. submit_p50, "ms");
    ("serve.transport_ms", 1000. *. (p50 -. submit_p50), "ms");
    ("batcher.rows_per_batch", rows /. batches, "ratio");
    ( "batcher.vectorized_share",
      (if density = 0. then 0. else stat "vectorized_rows" st /. density),
      "ratio" );
    ("batcher.scalar_fallbacks", stat "scalar_fallbacks" st, "count");
    ("batcher.max_queue", stat "max_queue" st, "count");
    ("bench.trace_overhead_pct", 100. *. ((median (latencies traced) /. p50) -. 1.), "%") ]
