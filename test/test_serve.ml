(* Tests for lib/serve: the wire protocol codecs and framing, the
   coalescing batcher's bit-identity contract (a batch of N mixed
   requests answers exactly like N sequential single-request calls,
   across domain counts and batch-window timings), admission control,
   graceful drain, and the socket daemon end to end — plus the
   truncated-trace and checkpoint-UX satellites' serve-side faces. *)

let bits = Int64.bits_of_float

let outcome_identical a b =
  match (a, b) with
  | Batcher.O_value x, Batcher.O_value y -> bits x = bits y
  | Batcher.O_sample (ta, qa), Batcher.O_sample (tb, qb) ->
    bits qa = bits qb
    && List.length ta = List.length tb
    && List.for_all2
         (fun (na, va) (nb, vb) -> na = nb && Proto.wire_value_equal va vb)
         ta tb
  | Batcher.O_grad (va, ga), Batcher.O_grad (vb, gb) ->
    bits va = bits vb
    && List.length ga = List.length gb
    && List.for_all2
         (fun (na, xa) (nb, xb) -> na = nb && bits xa = bits xb)
         ga gb
  | Batcher.O_error (ca, _), Batcher.O_error (cb, _) -> ca = cb
  | _ -> false

let outcome_str = function
  | Batcher.O_value v -> Printf.sprintf "value %h" v
  | Batcher.O_sample (_, q) -> Printf.sprintf "sample logq %h" q
  | Batcher.O_grad (v, _) -> Printf.sprintf "grad %h" v
  | Batcher.O_error (c, m) -> Printf.sprintf "error %s: %s" c m

(* ------------------------------------------------------------------ *)
(* Protocol codecs *)

let gen_wire_value =
  QCheck.Gen.(
    oneof
      [ map (fun f -> Proto.Scalar f) (oneofl [ 0.; -0.; 1.5e-300; Float.nan; Float.infinity; Float.neg_infinity; 3.141592653589793 ]);
        map (fun f -> Proto.Scalar f) float;
        map
          (fun fs -> Proto.Vector (Array.of_list fs))
          (list_size (int_range 0 5) float)
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [ map2
          (fun m tr -> Proto.Score { model = m; trace = tr })
          (oneofl [ "coin"; "cone"; "chain" ])
          (list_size (int_range 0 4)
             (pair (oneofl [ "x"; "y"; "z0"; "fairness" ]) gen_wire_value));
        map2 (fun m s -> Proto.Sample { model = m; seed = s }) string_small nat;
        map3
          (fun m s p -> Proto.Elbo { model = m; seed = s; particles = p + 1 })
          string_small nat (int_bound 4);
        map2 (fun m s -> Proto.Grad { model = m; seed = s }) string_small nat;
        return Proto.Health;
        return Proto.Stats;
        map2
          (fun v s -> Proto.Hello { version = v; schema = s })
          string_small nat
      ])

let gen_envelope =
  QCheck.Gen.(
    map3
      (fun id dl req -> { Proto.id; deadline_ms = dl; req })
      nat
      (opt (map (fun f -> Float.abs f +. 1.) pfloat))
      gen_request)

let wire_req_eq (a : Proto.envelope) (b : Proto.envelope) =
  a.Proto.id = b.Proto.id
  && (match (a.Proto.deadline_ms, b.Proto.deadline_ms) with
     | None, None -> true
     | Some x, Some y -> bits x = bits y
     | _ -> false)
  &&
  match (a.Proto.req, b.Proto.req) with
  | Proto.Score { model = ma; trace = ta }, Proto.Score { model = mb; trace = tb }
    ->
    ma = mb
    && List.length ta = List.length tb
    && List.for_all2
         (fun (na, va) (nb, vb) -> na = nb && Proto.wire_value_equal va vb)
         ta tb
  | ra, rb -> ra = rb

let proto_roundtrip =
  QCheck.Test.make ~name:"proto: request encode/decode round-trips" ~count:300
    (QCheck.make gen_envelope) (fun env ->
      match Proto.decode_request (Proto.encode_request env) with
      | Ok env' -> wire_req_eq env env'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

(* Replies additionally survive an actual serialization to text — the
   shortest-round-trip float writer is what makes wire bit-identity
   possible at all. *)
let gen_reply =
  QCheck.Gen.(
    oneof
      [ map (fun v -> Proto.R_value v) float;
        map (fun v -> Proto.R_value v)
          (oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0. ]);
        map2
          (fun tr q -> Proto.R_sample { trace = tr; logq = q })
          (list_size (int_range 0 4) (pair (oneofl [ "a"; "b"; "c" ]) gen_wire_value))
          float;
        map2
          (fun v gs -> Proto.R_grad { value = v; grads = gs })
          float
          (list_size (int_range 0 4) (pair (oneofl [ "p"; "q" ]) float));
        map2
          (fun c m -> Proto.R_error { code = c; msg = m })
          (oneofl [ "overloaded"; "draining"; "deadline"; "internal" ])
          string_small
      ])

let reply_roundtrip =
  QCheck.Test.make ~name:"proto: reply survives to_string/parse bit-exactly"
    ~count:300
    (QCheck.make QCheck.Gen.(pair nat gen_reply))
    (fun (rid, reply) ->
      let text = Obs.Json.to_string (Proto.encode_reply { Proto.rid; reply }) in
      match Obs.Json.parse text with
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg
      | Ok j -> (
        match Proto.decode_reply j with
        | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
        | Ok { rid = rid'; reply = reply' } ->
          rid = rid'
          &&
          (match (reply, reply') with
          | Proto.R_value a, Proto.R_value b -> bits a = bits b
          | Proto.R_sample { trace = ta; logq = qa }, Proto.R_sample { trace = tb; logq = qb }
            ->
            bits qa = bits qb
            && List.for_all2
                 (fun (na, va) (nb, vb) ->
                   na = nb && Proto.wire_value_equal va vb)
                 ta tb
          | Proto.R_grad { value = va; grads = ga }, Proto.R_grad { value = vb; grads = gb }
            ->
            bits va = bits vb
            && List.for_all2
                 (fun (na, xa) (nb, xb) -> na = nb && bits xa = bits xb)
                 ga gb
          | Proto.R_error { code = ca; _ }, Proto.R_error { code = cb; _ } ->
            ca = cb
          | _ -> false)))

let test_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = Obs.Json.Str (String.make 100_000 'x') in
  let frames =
    [ Obs.Json.Obj []; Obs.Json.Num 1.5; big; Obs.Json.Arr [ Obs.Json.Null ] ]
  in
  List.iter (Proto.write_frame a) frames;
  List.iter
    (fun expect ->
      match Proto.read_frame b with
      | Ok j ->
        Alcotest.(check string)
          "frame round-trips"
          (Obs.Json.to_string expect) (Obs.Json.to_string j)
      | Error e -> Alcotest.fail (Proto.frame_error_to_string e))
    frames;
  (* A frame cut mid-body must read as Truncated, and a clean close as
     Eof — the connection handler tells them apart. *)
  let payload = Obs.Json.to_string (Obs.Json.Str "truncated") in
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  ignore (Unix.write a hdr 0 4);
  ignore (Unix.write_substring a payload 0 (n - 3));
  Unix.close a;
  (match Proto.read_frame b with
  | Error Proto.Truncated -> ()
  | Ok _ -> Alcotest.fail "expected Truncated, got a frame"
  | Error e -> Alcotest.failf "expected Truncated, got %s" (Proto.frame_error_to_string e));
  (match Proto.read_frame b with
  | Error Proto.Eof -> ()
  | _ -> Alcotest.fail "expected Eof after close");
  Unix.close b

let test_oversized_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (1 lsl 30));
  ignore (Unix.write a hdr 0 4);
  (match Proto.read_frame ~max_len:(1 lsl 20) b with
  | Error (Proto.Oversized _) -> ()
  | _ -> Alcotest.fail "expected Oversized");
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Coalescing bit-identity (the tentpole's correctness satellite) *)

let fresh_batcher cfg =
  let b = Batcher.create cfg in
  Batcher.register_builtins b;
  b

(* A deterministic mixed request stream over every built-in model. *)
let nth_test_request ~seed i =
  let model = [| "coin"; "cone"; "chain" |].(i mod 3) in
  match i mod 4 with
  | 0 | 2 -> Serve.nth_request ~model ~seed i (* score / elbo mix *)
  | 1 -> Proto.Sample { model; seed = (seed * 31) + i }
  | _ -> Proto.Elbo { model; seed = (seed * 17) + i; particles = 1 + (i mod 3) }

let run_sequential ~seed n =
  (* max_batch 1 and a zero window: every request is its own batch. *)
  let b =
    fresh_batcher { Batcher.max_batch = 1; max_wait_us = 0.; queue_bound = 1024 }
  in
  Batcher.start b;
  let outs =
    Array.init n (fun i -> Batcher.submit b (nth_test_request ~seed i))
  in
  Batcher.drain b;
  outs

(* Submit [reqs] from one thread each, filling the queue before the
   executor starts (maximal coalescing); returns the replies in order. *)
let submit_coalesced b reqs =
  let n = List.length reqs in
  Batcher.pause b;
  Batcher.start b;
  let outs = Array.make n (Batcher.O_error ("missing", "no reply")) in
  let threads =
    List.mapi
      (fun i req -> Thread.create (fun () -> outs.(i) <- Batcher.submit b req) ())
      reqs
  in
  (* Wait until every submission is queued, then release the executor. *)
  let rec wait_queued tries =
    if Batcher.queue_depth b < n && tries > 0 then begin
      Thread.delay 0.002;
      wait_queued (tries - 1)
    end
  in
  wait_queued 2000;
  Batcher.resume b;
  List.iter Thread.join threads;
  outs

let run_concurrent ~seed ~max_wait_us n =
  let b =
    fresh_batcher
      { Batcher.max_batch = 64; max_wait_us; queue_bound = 1024 }
  in
  let outs = submit_coalesced b (List.init n (nth_test_request ~seed)) in
  let stats = Batcher.stats b in
  Batcher.drain b;
  (outs, stats)

let coalesce_identity =
  QCheck.Test.make
    ~name:
      "batcher: batch of N mixed requests bit-identical to N sequential \
       calls (across windows and domain counts)"
    ~count:12
    QCheck.(
      make
        Gen.(
          triple (int_range 3 20) (int_range 0 100_000)
            (oneofl [ 0.; 200.; 2000. ])))
    (fun (n, seed, max_wait_us) ->
      let seq = run_sequential ~seed n in
      let conc, _ = run_concurrent ~seed ~max_wait_us n in
      Array.iteri
        (fun i a ->
          if not (outcome_identical a conc.(i)) then
            QCheck.Test.fail_reportf
              "request %d diverged:\n  sequential: %s\n  concurrent: %s" i
              (outcome_str a) (outcome_str conc.(i)))
        seq;
      true)

let test_coalesce_identity_domains () =
  (* The same identity must hold when tensor kernels run on a domain
     pool: coalesced rows are [n]-vectors, big enough to tempt the
     parallel partitioner. *)
  let saved = Parallel.domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_domains saved)
    (fun () ->
      List.iter
        (fun domains ->
          Parallel.set_domains domains;
          let n = 24 and seed = 7 in
          let seq = run_sequential ~seed n in
          let conc, stats = run_concurrent ~seed ~max_wait_us:0. n in
          ignore stats;
          Array.iteri
            (fun i a ->
              if not (outcome_identical a conc.(i)) then
                Alcotest.failf "domains=%d request %d diverged: %s vs %s"
                  domains i (outcome_str a) (outcome_str conc.(i)))
            seq)
        [ 1; 2 ])

let test_coalescing_actually_batches () =
  let n = 30 in
  let _, stats = run_concurrent ~seed:3 ~max_wait_us:0. n in
  Alcotest.(check int) "all rows executed" n stats.Batcher.s_rows;
  if Batcher.coalesce_ratio stats < 2. then
    Alcotest.failf "coalesce ratio %.2f < 2 (batches=%d rows=%d)"
      (Batcher.coalesce_ratio stats)
      stats.Batcher.s_batches stats.Batcher.s_rows;
  if stats.Batcher.s_vectorized_rows = 0 then
    Alcotest.fail "no rows were vectorized"

let test_score_matches_direct_density () =
  (* A served score must equal the direct interpreter evaluation. *)
  let b =
    fresh_batcher { Batcher.max_batch = 1; max_wait_us = 0.; queue_bound = 16 }
  in
  Batcher.start b;
  let x = 0.8 and y = -0.3 in
  let out =
    Batcher.submit b
      (Proto.Score
         {
           model = "cone";
           trace = [ ("x", Proto.Scalar x); ("y", Proto.Scalar y) ];
         })
  in
  Batcher.drain b;
  let tr =
    Trace.of_list
      [ ("x", Value.Real (Ad.scalar x)); ("y", Value.Real (Ad.scalar y)) ]
  in
  let direct =
    Ad.to_float
      (Adev.run (Gen.log_density Cone.model tr) (Prng.key 0) (fun w -> w))
  in
  match out with
  | Batcher.O_value v ->
    Alcotest.(check bool)
      (Printf.sprintf "score %h = direct %h" v direct)
      true
      (bits v = bits direct)
  | other -> Alcotest.failf "expected a value, got %s" (outcome_str other)

(* ------------------------------------------------------------------ *)
(* Admission control, deadlines, drain *)

let test_admission_overload () =
  let b =
    fresh_batcher { Batcher.max_batch = 8; max_wait_us = 0.; queue_bound = 2 }
  in
  Batcher.pause b;
  Batcher.start b;
  let outs = Array.make 2 (Batcher.O_error ("missing", "")) in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            outs.(i) <- Batcher.submit b (Proto.Sample { model = "cone"; seed = i }))
          ())
  in
  let rec wait_queued tries =
    if Batcher.queue_depth b < 2 && tries > 0 then begin
      Thread.delay 0.002;
      wait_queued (tries - 1)
    end
  in
  wait_queued 2000;
  (* Submitting below the bound would queue behind the paused executor
     and never return: release the submitters and fail instead. *)
  if Batcher.queue_depth b < 2 then begin
    Batcher.resume b;
    List.iter Thread.join threads;
    Batcher.drain b;
    Alcotest.fail "the two submitters were not queued within 4 s"
  end;
  (* Queue is at the bound: the next request is shed immediately. *)
  (match Batcher.submit b (Proto.Sample { model = "cone"; seed = 99 }) with
  | Batcher.O_error ("overloaded", _) -> ()
  | other -> Alcotest.failf "expected overloaded, got %s" (outcome_str other));
  Batcher.resume b;
  List.iter Thread.join threads;
  Array.iter
    (fun o ->
      match o with
      | Batcher.O_sample _ -> ()
      | other -> Alcotest.failf "queued request lost: %s" (outcome_str other))
    outs;
  let s = Batcher.stats b in
  Alcotest.(check int) "overload counted" 1 s.Batcher.s_overloaded;
  Batcher.drain b

let test_deadline () =
  let b =
    fresh_batcher { Batcher.max_batch = 8; max_wait_us = 0.; queue_bound = 16 }
  in
  Batcher.pause b;
  Batcher.start b;
  let result = ref (Batcher.O_error ("missing", "")) in
  let th =
    Thread.create
      (fun () ->
        result :=
          Batcher.submit b ~deadline_ms:1.
            (Proto.Score { model = "cone"; trace = [ ("x", Proto.Scalar 0.); ("y", Proto.Scalar 0.) ] }))
      ()
  in
  let rec wait_queued tries =
    if Batcher.queue_depth b < 1 && tries > 0 then begin
      Thread.delay 0.002;
      wait_queued (tries - 1)
    end
  in
  wait_queued 2000;
  Thread.delay 0.02;
  (* 20ms > the 1ms deadline *)
  Batcher.resume b;
  Thread.join th;
  (match !result with
  | Batcher.O_error ("deadline", _) -> ()
  | other -> Alcotest.failf "expected deadline, got %s" (outcome_str other));
  Batcher.drain b

let test_drain_flushes_and_rejects () =
  let b =
    fresh_batcher { Batcher.max_batch = 8; max_wait_us = 0.; queue_bound = 16 }
  in
  Batcher.pause b;
  Batcher.start b;
  let n = 5 in
  let outs = Array.make n (Batcher.O_error ("missing", "")) in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            outs.(i) <- Batcher.submit b (Proto.Sample { model = "coin"; seed = i }))
          ())
  in
  let rec wait_queued tries =
    if Batcher.queue_depth b < n && tries > 0 then begin
      Thread.delay 0.002;
      wait_queued (tries - 1)
    end
  in
  wait_queued 2000;
  (* Drain resumes the paused executor and flushes every queued job. *)
  Batcher.drain b;
  List.iter Thread.join threads;
  Array.iteri
    (fun i o ->
      match o with
      | Batcher.O_sample _ -> ()
      | other -> Alcotest.failf "queued request %d lost in drain: %s" i (outcome_str other))
    outs;
  (* Post-drain submissions are refused with an explicit reply. *)
  match Batcher.submit b (Proto.Sample { model = "coin"; seed = 0 }) with
  | Batcher.O_error ("draining", _) -> ()
  | other -> Alcotest.failf "expected draining, got %s" (outcome_str other)

let test_unknown_model () =
  let b =
    fresh_batcher { Batcher.max_batch = 1; max_wait_us = 0.; queue_bound = 4 }
  in
  Batcher.start b;
  (match Batcher.submit b (Proto.Sample { model = "nope"; seed = 0 }) with
  | Batcher.O_error ("unknown-model", _) -> ()
  | other -> Alcotest.failf "expected unknown-model, got %s" (outcome_str other));
  Batcher.drain b

(* ------------------------------------------------------------------ *)
(* Hot reload (plan + parameter-store cache) *)

let test_param_hot_reload () =
  let dir = Filename.temp_file "ppvi-serve-params" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let model_dir = Filename.concat dir "cone" in
  Unix.mkdir model_dir 0o755;
  (* First checkpoint: distinctive parameters. *)
  let s0 = Store.create () in
  Cone.register s0 (Prng.key 0);
  Store.set s0 "cone.naive.mx" (Tensor.scalar 2.5);
  ignore (Store.save_rotated s0 ~dir:model_dir);
  let b =
    Batcher.create { Batcher.max_batch = 4; max_wait_us = 0.; queue_bound = 16 }
  in
  Batcher.register_builtins ~params_root:dir b;
  Batcher.start b;
  let sample_mean seed =
    match Batcher.submit b (Proto.Sample { model = "cone"; seed }) with
    | Batcher.O_sample (trace, _) -> (
      match List.assoc_opt "x" trace with
      | Some (Proto.Scalar v) -> v
      | _ -> Alcotest.fail "sample without x")
    | other -> Alcotest.failf "expected sample, got %s" (outcome_str other)
  in
  let before = sample_mean 5 in
  (* Rotate the checkpoint with shifted parameters; the poller must
     pick it up (it polls at most every 250ms). *)
  Store.set s0 "cone.naive.mx" (Tensor.scalar (-2.5));
  ignore (Store.save_rotated s0 ~dir:model_dir);
  Thread.delay 0.3;
  let rec wait_reload tries =
    let s = Batcher.stats b in
    if s.Batcher.s_reloads = 0 && tries > 0 then begin
      ignore (sample_mean 1);
      Thread.delay 0.05;
      wait_reload (tries - 1)
    end
  in
  wait_reload 40;
  let after = sample_mean 5 in
  Batcher.drain b;
  let s = Batcher.stats b in
  if s.Batcher.s_reloads = 0 then Alcotest.fail "no hot reload happened";
  (* Same seed, shifted guide mean: the draw must move with it. *)
  if bits before = bits after then
    Alcotest.failf "sample ignored the reloaded parameters (%h = %h)" before
      after

(* Polling reads a checkpoint only when the newest ckpt.N changed.
   The newest file is damaged in place after the warm start: a poll
   that read it would fall back past it, which "store/fallbacks"
   counts. A newer damaged file is then read (and fallen back past). *)
let test_reload_poll_reads_nothing_unchanged () =
  let dir = Filename.temp_file "ppvi-serve-poll" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let model_dir = Filename.concat dir "coin" in
  Unix.mkdir model_dir 0o755;
  let s0 = Store.create () in
  Coin.register s0;
  let first = Store.save_rotated s0 ~dir:model_dir in
  let b =
    Batcher.create { Batcher.max_batch = 4; max_wait_us = 0.; queue_bound = 16 }
  in
  Batcher.register_builtins ~params_root:dir b;
  let damage path =
    let oc = open_out_bin path in
    output_string oc "PPVISTOR-not-really";
    close_out oc
  in
  damage first;
  Obs.configure ~enabled:true ~sink:`Null ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.configure ~enabled:false ~sink:`Console ())
    (fun () ->
      Batcher.start b;
      let polls n =
        for _ = 1 to n do
          Thread.delay 0.26;
          ignore (Batcher.submit b (Proto.Sample { model = "coin"; seed = 0 }))
        done
      in
      polls 2;
      Alcotest.(check int) "unchanged directory: no checkpoint read" 0
        (Obs.counter_value "store/fallbacks");
      damage (Filename.concat model_dir "ckpt.2");
      polls 1;
      Batcher.drain b;
      Alcotest.(check bool) "a newer damaged checkpoint is read" true
        (Obs.counter_value "store/fallbacks" > 0);
      Alcotest.(check int) "and never loaded" 0 (Batcher.stats b).Batcher.s_reloads)

(* ------------------------------------------------------------------ *)
(* Socket daemon end to end *)

let with_server ?(max_wait_us = 0.) f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppvi-test-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { (Serve.default_cfg (`Unix path)) with Serve.max_wait_us; queue_bound = 64 }
  in
  let s = Serve.start cfg in
  let finish () =
    Serve.request_drain s;
    Serve.wait s
  in
  Fun.protect ~finally:finish (fun () -> f path s)

let test_server_end_to_end () =
  with_server (fun path server ->
      let conn = Serve.Client.connect (`Unix path) in
      let version, schema, models = Serve.Client.server_info conn in
      Alcotest.(check string) "handshake version" Proto.build_version version;
      Alcotest.(check int) "handshake schema" Proto.schema_version schema;
      Alcotest.(check (list string))
        "handshake models" [ "chain"; "coin"; "cone" ] models;
      (match Serve.Client.call conn Proto.Health with
      | Proto.R_health { status; version; _ } ->
        Alcotest.(check string) "health status" "serving" status;
        Alcotest.(check string) "health version" Proto.build_version version
      | _ -> Alcotest.fail "bad health reply");
      (* A served score equals the direct evaluation, through sockets. *)
      let x = 1.25 and y = 0.5 in
      (match
         Serve.Client.call conn
           (Proto.Score
              {
                model = "cone";
                trace = [ ("x", Proto.Scalar x); ("y", Proto.Scalar y) ];
              })
       with
      | Proto.R_value v ->
        let tr =
          Trace.of_list
            [ ("x", Value.Real (Ad.scalar x)); ("y", Value.Real (Ad.scalar y)) ]
        in
        let direct =
          Ad.to_float
            (Adev.run (Gen.log_density Cone.model tr) (Prng.key 0) (fun w -> w))
        in
        if bits v <> bits direct then
          Alcotest.failf "wire score %h <> direct %h" v direct
      | r ->
        Alcotest.failf "bad score reply: %s"
          (Obs.Json.to_string (Proto.encode_reply { Proto.rid = 0; reply = r })));
      (match Serve.Client.call conn Proto.Stats with
      | Proto.R_stats (Obs.Json.Obj fields) ->
        Alcotest.(check bool)
          "stats has coalesce_ratio" true
          (List.mem_assoc "coalesce_ratio" fields)
      | _ -> Alcotest.fail "bad stats reply");
      Serve.Client.close conn;
      ignore server)

let test_server_schema_mismatch () =
  with_server (fun path _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Proto.write_frame fd
        (Proto.encode_request
           {
             Proto.id = 0;
             deadline_ms = None;
             req = Proto.Hello { version = "9.9.9"; schema = 999 };
           });
      (match Proto.read_frame fd with
      | Ok j -> (
        match Proto.decode_reply j with
        | Ok { reply = Proto.R_error { code = "schema-mismatch"; msg }; _ } ->
          if not (String.length msg > 0) then Alcotest.fail "empty mismatch msg"
        | _ -> Alcotest.fail "expected a schema-mismatch error")
      | Error e -> Alcotest.fail (Proto.frame_error_to_string e));
      (* The server closes the connection after refusing. *)
      (match Proto.read_frame fd with
      | Error Proto.Eof -> ()
      | _ -> Alcotest.fail "expected Eof after schema refusal");
      Unix.close fd)

let test_server_drain_loses_nothing () =
  (* Stream load from several clients, trigger a drain mid-flight:
     every request that was sent must get a reply (a value or an
     explicit [draining] error) — lost must be 0, on every attempt.
     Whether the drain lands while requests are still in flight is a
     race against the machine, so retry with a growing load until one
     attempt actually observes draining replies. *)
  let rec attempt tries requests =
    if tries = 0 then
      Alcotest.fail "no attempt caught the drain mid-flight"
    else
      let caught =
        with_server (fun path server ->
            (* Drain once the daemon has answered a request (at most
               10 s of polling), so at least one client has a reply
               however slowly the load starts. *)
            let drainer =
              Thread.create
                (fun () ->
                  let answered () =
                    (Batcher.stats (Serve.batcher server)).Batcher.s_replies >= 1
                  in
                  let rec wait tries =
                    if (not (answered ())) && tries > 0 then begin
                      Thread.delay 0.001;
                      wait (tries - 1)
                    end
                  in
                  wait 10_000;
                  Serve.request_drain server)
                ()
            in
            let report =
              Serve.run_load (`Unix path) ~clients:6 ~requests ~model:"chain"
                ~seed:11 ()
            in
            Thread.join drainer;
            Alcotest.(check int) "zero lost requests" 0 report.Serve.lr_lost;
            if report.Serve.lr_ok = 0 then Alcotest.fail "no request succeeded";
            report.Serve.lr_draining > 0)
      in
      if not caught then attempt (tries - 1) (requests * 2)
  in
  attempt 5 50

let test_server_load_bit_identity () =
  with_server ~max_wait_us:300. (fun path _ ->
      let sequential =
        Serve.run_load (`Unix path) ~clients:1 ~requests:48 ~model:"chain"
          ~seed:21 ()
      in
      let concurrent =
        Serve.run_load (`Unix path) ~clients:12 ~requests:4 ~model:"chain"
          ~seed:21 ()
      in
      Alcotest.(check int) "sequential all ok" 48 sequential.Serve.lr_ok;
      Alcotest.(check int) "concurrent all ok" 48 concurrent.Serve.lr_ok;
      Alcotest.(check int)
        "bit-identical replies" 0
        (Serve.mismatches sequential concurrent))

(* ------------------------------------------------------------------ *)
(* Lingering only while company can come *)

(* Blocks until the daemon counts [n] clients: a client's handshake
   reply can reach it before the server thread declares it. *)
let await_clients server n =
  let b = Serve.batcher server in
  let rec go tries =
    if (Batcher.stats b).Batcher.s_clients <> n then
      if tries = 0 then Alcotest.failf "the daemon never counted %d clients" n
      else begin
        Thread.delay 0.002;
        go (tries - 1)
      end
  in
  go 2500

(* One chain score request; returns its round-trip seconds. *)
let timed_score conn i =
  let t0 = Unix.gettimeofday () in
  (match Serve.Client.call conn (Serve.nth_request ~model:"chain" ~seed:1 (2 * i)) with
  | Proto.R_value _ -> ()
  | _ -> Alcotest.fail "expected a score value");
  Unix.gettimeofday () -. t0

let connect path = Serve.Client.connect (`Unix path)

let test_lone_connection_never_waits () =
  with_server ~max_wait_us:2e6 (fun path server ->
      let conn = connect path in
      await_clients server 1;
      for i = 0 to 4 do
        let dt = timed_score conn i in
        if dt >= 0.5 then Alcotest.failf "request %d took %.3f s" i dt
      done;
      Serve.Client.close conn;
      let s = Batcher.stats (Serve.batcher server) in
      Alcotest.(check int) "no batch lingered" 0 s.Batcher.s_lingered)

let test_company_ends_linger () =
  with_server ~max_wait_us:2e6 (fun path server ->
      let a = connect path and b = connect path in
      await_clients server 2;
      let times = Array.make 2 infinity in
      let threads =
        List.mapi
          (fun k conn -> Thread.create (fun () -> times.(k) <- timed_score conn k) ())
          [ a; b ]
      in
      List.iter Thread.join threads;
      Serve.Client.close a;
      Serve.Client.close b;
      Array.iteri
        (fun k dt -> if dt >= 0.5 then Alcotest.failf "client %d waited %.3f s" k dt)
        times;
      let s = Batcher.stats (Serve.batcher server) in
      Alcotest.(check (pair int int)) "one batch of 2 rows" (1, 2)
        (s.Batcher.s_batches, s.Batcher.s_rows))

let test_idle_connection_bounds_wait () =
  with_server ~max_wait_us:1e5 (fun path server ->
      let active = connect path and silent = connect path in
      await_clients server 2;
      let dt = timed_score active 0 in
      Serve.Client.close active;
      Serve.Client.close silent;
      if dt < 0.09 || dt >= 2. then
        Alcotest.failf "answered after %.3f s, not within [0.09, 2) s" dt;
      let s = Batcher.stats (Serve.batcher server) in
      Alcotest.(check int) "the batch lingered" 1 s.Batcher.s_lingered;
      if s.Batcher.s_linger_ms < 90. then
        Alcotest.failf "linger_ms %.1f < 90" s.Batcher.s_linger_ms)

let test_departing_connection_releases_batch () =
  with_server ~max_wait_us:2e6 (fun path server ->
      let active = connect path and leaving = connect path in
      await_clients server 2;
      let dt = ref infinity in
      let th = Thread.create (fun () -> dt := timed_score active 0) () in
      let b = Serve.batcher server in
      let rec await_queued tries =
        if (Batcher.stats b).Batcher.s_requests = 0 && tries > 0 then begin
          Thread.delay 0.002;
          await_queued (tries - 1)
        end
      in
      await_queued 2500;
      Serve.Client.close leaving;
      Thread.join th;
      Serve.Client.close active;
      if !dt >= 0.5 then Alcotest.failf "answered after %.3f s" !dt)

(* ------------------------------------------------------------------ *)
(* Fault hooks in the serving path *)

let test_fault_hook_in_admission () =
  (match Fault.plan_of_string ~seed:0 "io-error=1.0" with
  | Ok plan -> Fault.install plan
  | Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:Fault.clear (fun () ->
      let b =
        fresh_batcher
          { Batcher.max_batch = 1; max_wait_us = 0.; queue_bound = 4 }
      in
      Batcher.start b;
      (match Batcher.submit b (Proto.Sample { model = "cone"; seed = 0 }) with
      | Batcher.O_error ("fault", _) -> ()
      | other ->
        Alcotest.failf "expected an injected fault error, got %s"
          (outcome_str other));
      Batcher.drain b)

(* Density-only traffic must leave the heap flat: a daemon that only
   scores keeps nothing per request. *)
let test_score_heap_flat () =
  let b = fresh_batcher Batcher.default_cfg in
  Batcher.start b;
  let score i =
    (* Even indices are score requests; each solo submit is a batch of
       one, so every row takes the scalar density path. *)
    match Batcher.submit b (Serve.nth_request ~model:"chain" ~seed:5 (2 * i)) with
    | Batcher.O_value _ -> ()
    | other -> Alcotest.failf "request %d: %s" i (outcome_str other)
  in
  let live_bytes () =
    Gc.full_major ();
    8 * (Gc.stat ()).Gc.live_words
  in
  for i = 0 to 49 do score i done;
  let before = live_bytes () in
  for i = 50 to 249 do score i done;
  let after = live_bytes () in
  Batcher.drain b;
  if after - before >= 2 * 1024 * 1024 then
    Alcotest.failf "live heap grew by %d bytes over 200 score requests"
      (after - before)

(* Score, elbo and sample replies run tape-free: the only taped nodes
   a request adds are leaves built outside the scope, such as the 8
   wire values of a chain score request (a taped chain score built
   3 963 nodes, an elbo 4 067, a sample 112). Grad replies stay
   taped. *)
let test_replies_build_no_tape () =
  let b = fresh_batcher Batcher.default_cfg in
  Batcher.start b;
  let growth req =
    let n0 = Ad.node_count () in
    (match Batcher.submit b req with
    | Batcher.O_error (c, m) -> Alcotest.failf "%s: %s" c m
    | _ -> ());
    Ad.node_count () - n0
  in
  let score i = Serve.nth_request ~model:"chain" ~seed:3 (2 * i)
  and elbo i = Serve.nth_request ~model:"chain" ~seed:3 ((2 * i) + 1)
  and sample i = Proto.Sample { model = "chain"; seed = i } in
  List.iter
    (fun (kind, req) ->
      for i = 0 to 19 do
        let g = growth (req i) in
        if g > 8 then Alcotest.failf "%s request %d built %d taped nodes" kind i g
      done)
    [ ("score", score); ("elbo", elbo); ("sample", sample) ];
  Alcotest.(check bool) "grad replies stay taped" true
    (growth (Proto.Grad { model = "chain"; seed = 0 }) > 1000);
  Batcher.drain b;
  (* Coalesced rows take the vectorized density, also tape-free. *)
  let n = 24 in
  let b = fresh_batcher { Batcher.default_cfg with max_wait_us = 0. } in
  let n0 = Ad.node_count () in
  ignore (submit_coalesced b (List.init n (Serve.nth_request ~model:"chain" ~seed:4)));
  let g = Ad.node_count () - n0 in
  let stats = Batcher.stats b in
  Batcher.drain b;
  if stats.Batcher.s_vectorized_rows = 0 then Alcotest.fail "no rows were vectorized";
  if g > 8 * n then Alcotest.failf "%d coalesced requests built %d taped nodes" n g

(* A model the vectorized density refuses ([marginal] is not
   batchable): coalesced rows leave the scope on [Not_batchable] and
   fall back to scalar rows, and the marginal's ENUM proposal site
   still enumerates inside the scope, so replies equal the taped
   density bit for bit. *)
let test_unbatchable_model_falls_back () =
  let open Gen.Syntax in
  let std () = Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.) in
  let inner =
    let* x = Gen.sample (std ()) "x" in
    let* _ = Gen.sample (Dist.flip_enum (Ad.sigmoid x)) "a" in
    Gen.return ()
  in
  let proposal _ =
    Gen.Packed (Gen.sample (Dist.flip_enum (Ad.scalar 0.3)) "a")
  in
  let model =
    Gen.map ignore
      (Gen.marginal ~keep:[ "x" ] inner (Gen.importance ~particles:3 proposal))
  in
  let b = Batcher.create { Batcher.default_cfg with max_wait_us = 0. } in
  Batcher.register b ~name:"m" ~model
    ~guide:(fun _ -> Gen.map ignore (Gen.sample (std ()) "x"))
    ~store:(Store.create ()) ();
  let xs = [| 0.3; -0.5; 1.2 |] in
  let outs =
    submit_coalesced b
      (Array.to_list
         (Array.map
            (fun x -> Proto.Score { model = "m"; trace = [ ("x", Proto.Scalar x) ] })
            xs))
  in
  let stats = Batcher.stats b in
  Batcher.drain b;
  Alcotest.(check int) "one stacked attempt fell back" 1 stats.Batcher.s_fallbacks;
  Alcotest.(check int) "every row scored scalar" (Array.length xs)
    stats.Batcher.s_scalar_rows;
  Array.iteri
    (fun i x ->
      let taped =
        Ad.to_float
          (Adev.run
             (Gen.log_density model (Trace.of_list [ ("x", Value.Real (Ad.scalar x)) ]))
             (Prng.key 0) (fun w -> w))
      in
      match outs.(i) with
      | Batcher.O_value v when bits v = bits taped -> ()
      | other -> Alcotest.failf "row %d: %s, taped %h" i (outcome_str other) taped)
    xs;
  let n0 = Ad.node_count () in
  ignore (Ad.exp (Ad.scalar 1.));
  Alcotest.(check bool) "the scope was left" true (Ad.node_count () > n0)

(* Reply bits pinned from the taped implementation, solo batches. *)
let pinned =
  [ ("coin",
     [ 0xc016f53a0c5239dcL; 0xc01af3be4e33a26aL; 0xc01710f70ac70ed6L;
       0xc01b3b6756cf488cL ],
     (0x3ff19abeda4cfdb0L, [ 0x3fe21e983662d053L ]),
     0xc01b8922ef53f1f7L);
    ("cone",
     [ 0xc044c2bc6f1b722bL; 0xc04171bc27d34be8L; 0xc019200ab901c9deL;
       0xbfab069ce66ab880L ],
     (0xc009d62b00d7e8caL, [ 0xbfefd99f1e47a436L; 0xbfcb164ef4c2d160L ]),
     0xc042ea177cbfb158L);
    ("chain",
     [ 0xc0294614c6bb4507L; 0xc008979e5d0807f6L; 0xc028730ea0e78942L;
       0xc01088c4e4e1f854L ],
     ( 0xc01c6c77ffa526f4L,
       [ 0xbff108306f3b9af2L; 0xbfe03603f200fe64L; 0xbfd1bdc6621a076bL;
         0xbfc9af0806693214L; 0x3fd8c7598bedc72bL; 0x3fb298099662bedbL;
         0xbfee075f26319eb8L; 0xbfc800aab317802eL ] ),
     0xc00a4eaed208f3b4L) ]

let test_pinned_reply_bits () =
  let b =
    fresh_batcher { Batcher.max_batch = 1; max_wait_us = 0.; queue_bound = 16 }
  in
  Batcher.start b;
  let check what want got =
    if got <> want then Alcotest.failf "%s: %Lx, pinned %Lx" what got want
  in
  List.iter
    (fun (model, values, (logq, draws), grad) ->
      List.iteri
        (fun i want ->
          match Batcher.submit b (Serve.nth_request ~model ~seed:11 i) with
          | Batcher.O_value v -> check (Printf.sprintf "%s nth %d" model i) want (bits v)
          | other -> Alcotest.failf "%s nth %d: %s" model i (outcome_str other))
        values;
      (match Batcher.submit b (Proto.Sample { model; seed = 23 }) with
      | Batcher.O_sample (trace, q) ->
        check (model ^ " sample logq") logq (bits q);
        List.iter2
          (fun want (addr, wv) ->
            match wv with
            | Proto.Scalar f -> check (model ^ " sample " ^ addr) want (bits f)
            | Proto.Vector _ -> Alcotest.failf "%s: vector draw" addr)
          draws trace
      | other -> Alcotest.failf "%s sample: %s" model (outcome_str other));
      match Batcher.submit b (Proto.Grad { model; seed = 23 }) with
      | Batcher.O_grad (v, _) -> check (model ^ " grad") grad (bits v)
      | other -> Alcotest.failf "%s grad: %s" model (outcome_str other))
    pinned;
  Batcher.drain b

let suites =
  [ ( "serve-proto",
      [ QCheck_alcotest.to_alcotest proto_roundtrip;
        QCheck_alcotest.to_alcotest reply_roundtrip;
        Alcotest.test_case "framing round-trip and truncation" `Quick
          test_framing;
        Alcotest.test_case "oversized frames are refused" `Quick
          test_oversized_frame
      ] );
    ( "serve-batcher",
      [ QCheck_alcotest.to_alcotest coalesce_identity;
        Alcotest.test_case "bit-identity across domain counts" `Quick
          test_coalesce_identity_domains;
        Alcotest.test_case "concurrent load actually coalesces" `Quick
          test_coalescing_actually_batches;
        Alcotest.test_case "served score = direct density" `Quick
          test_score_matches_direct_density;
        Alcotest.test_case "overload sheds with an explicit reply" `Quick
          test_admission_overload;
        Alcotest.test_case "queueing deadline rejects" `Quick test_deadline;
        Alcotest.test_case "drain flushes the queue, then refuses" `Quick
          test_drain_flushes_and_rejects;
        Alcotest.test_case "unknown model" `Quick test_unknown_model;
        Alcotest.test_case "checkpoint hot reload" `Quick test_param_hot_reload;
        Alcotest.test_case "reload poll reads only a new checkpoint" `Quick
          test_reload_poll_reads_nothing_unchanged;
        Alcotest.test_case "fault plan covers admission" `Quick
          test_fault_hook_in_admission;
        Alcotest.test_case "score-only traffic keeps the heap flat" `Quick
          test_score_heap_flat;
        Alcotest.test_case "replies build no tape" `Quick
          test_replies_build_no_tape;
        Alcotest.test_case "reply bits pinned per built-in model" `Quick
          test_pinned_reply_bits;
        Alcotest.test_case "unbatchable model falls back to scalar rows"
          `Quick test_unbatchable_model_falls_back
      ] );
    ( "serve-daemon",
      [ Alcotest.test_case "handshake, health, score, stats" `Quick
          test_server_end_to_end;
        Alcotest.test_case "schema mismatch fails loudly" `Quick
          test_server_schema_mismatch;
        Alcotest.test_case "drain loses zero accepted requests" `Quick
          test_server_drain_loses_nothing;
        Alcotest.test_case "socket load bit-identical to sequential" `Quick
          test_server_load_bit_identity;
        Alcotest.test_case "a lone connection never waits for the window"
          `Quick test_lone_connection_never_waits;
        Alcotest.test_case "company ends the linger" `Quick
          test_company_ends_linger;
        Alcotest.test_case "an idle open connection still bounds the wait"
          `Quick test_idle_connection_bounds_wait;
        Alcotest.test_case "a departing connection releases the batch" `Quick
          test_departing_connection_releases_batch
      ] )
  ]
