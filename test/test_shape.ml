(* Tests for the PV6xx static shape pass and the buffer pool: the
   abstract shape domain (broadcast analysis, symbolic dims), the
   preflight demo programs, the static-vs-runtime shape consistency
   property over the compilable registry, and the arena that remains
   — [Ad.checkpoint]'s segment pool — which must leave every result
   bit-identical to heap allocation. *)

let bits = Int64.bits_of_float
let tensor_bits t = Array.map bits (Tensor.to_array t)
let grads_bits gs = List.map (fun (n, g) -> (n, tensor_bits g)) gs
let scalar_of w = Tensor.to_scalar (Ad.value w)

let trace_bits tr =
  List.map
    (fun (addr, v) ->
      match v with
      | Value.Real a -> (addr, tensor_bits (Ad.value a))
      | Value.Bool b -> (addr, [| (if b then 1L else 0L) |])
      | Value.Int i -> (addr, [| Int64.of_int i |]))
    (Trace.bindings tr)

let run_for m key =
  let out = ref None in
  ignore
    (Adev.run m key (fun x ->
         out := Some x;
         Ad.scalar 0.));
  Option.get !out

(* ------------------------------------------------------------------ *)
(* The abstract shape domain                                           *)

let c = Shape.concrete

let test_broadcast_ok () =
  (match Shape.broadcast (c [| 4; 1 |]) (c [| 3 |]) with
  | Shape.Broadcast_ok out ->
    Alcotest.(check string) "right-aligned result" "[4,3]"
      (Shape.to_string out)
  | _ -> Alcotest.fail "expected Broadcast_ok");
  (* Rank extension alone is routine and never two-sided. *)
  (match Shape.broadcast (c [| 5; 2 |]) (c [| 2 |]) with
  | Shape.Broadcast_ok out ->
    Alcotest.(check string) "rank extension" "[5,2]" (Shape.to_string out)
  | _ -> Alcotest.fail "expected Broadcast_ok");
  match Shape.broadcast Shape.scalar (c [| 7 |]) with
  | Shape.Broadcast_ok out ->
    Alcotest.(check string) "scalar against vector" "[7]"
      (Shape.to_string out)
  | _ -> Alcotest.fail "expected Broadcast_ok"

let test_broadcast_mismatch () =
  match Shape.broadcast (c [| 4; 3 |]) (c [| 2; 3 |]) with
  | Shape.Broadcast_mismatch { axis; left; right } ->
    Alcotest.(check int) "mismatching axis" 0 axis;
    Alcotest.(check (option int)) "left extent" (Some 4)
      (Shape.dim_known left);
    Alcotest.(check (option int)) "right extent" (Some 2)
      (Shape.dim_known right)
  | _ -> Alcotest.fail "expected Broadcast_mismatch"

let test_broadcast_two_sided () =
  (match Shape.broadcast (c [| 6; 1 |]) (c [| 1; 5 |]) with
  | Shape.Broadcast_two_sided { result; left_axis; right_axis } ->
    Alcotest.(check string) "cross-product result" "[6,5]"
      (Shape.to_string result);
    Alcotest.(check int) "left stretches axis" 1 left_axis;
    Alcotest.(check int) "right stretches axis" 0 right_axis
  | _ -> Alcotest.fail "expected Broadcast_two_sided");
  (* One-sided explicit stretching is plain broadcasting. *)
  match Shape.broadcast (c [| 6; 1 |]) (c [| 6; 5 |]) with
  | Shape.Broadcast_ok _ -> ()
  | _ -> Alcotest.fail "one-sided stretch must be Broadcast_ok"

let test_symbolic_dims () =
  let sym ?binding s = Shape.Sym { sym = s; binding } in
  (* Bound symbols compare by extent; unbound only by identity. *)
  Alcotest.(check bool) "bound sym = equal const" true
    (Shape.equal [| sym ~binding:8 "B@z" |] (c [| 8 |]));
  Alcotest.(check bool) "bound sym <> other const" false
    (Shape.equal [| sym ~binding:8 "B@z" |] (c [| 4 |]));
  Alcotest.(check bool) "same unbound sym agrees" true
    (Shape.equal [| sym "N@xs" |] [| sym "N@xs" |]);
  Alcotest.(check bool) "different unbound syms differ" false
    (Shape.equal [| sym "N@xs" |] [| sym "N@ys" |]);
  Alcotest.(check (option (array int))) "to_concrete resolves bindings"
    (Some [| 8; 2 |])
    (Shape.to_concrete [| sym ~binding:8 "B@z"; Shape.Const 2 |]);
  Alcotest.(check (option (array int))) "to_concrete fails when unbound" None
    (Shape.to_concrete [| sym "N@xs" |]);
  Alcotest.(check string) "pretty-printing" "[N@xs=3,2]"
    (Shape.to_string [| sym ~binding:3 "N@xs"; Shape.Const 2 |])

let test_iid_count () =
  Alcotest.(check (option int)) "iid name parses" (Some 8)
    (Shape.iid_count "iid(8,normal)");
  Alcotest.(check (option int)) "plain name does not" None
    (Shape.iid_count "normal");
  Alcotest.(check (option int)) "malformed does not" None
    (Shape.iid_count "iid(x,normal)")

(* ------------------------------------------------------------------ *)
(* PV6xx demo programs (one per diagnostic)                            *)

let demo_entry name =
  match
    List.find_opt (fun e -> e.Preflight.name = name) Preflight.entries
  with
  | Some e -> e
  | None -> Alcotest.failf "registry has no entry %s" name

let codes report = List.map (fun d -> d.Check.code) report.Check.diagnostics

let check_demo name code severity =
  let e = demo_entry name in
  let r = Preflight.run e in
  let d =
    match List.find_opt (fun d -> d.Check.code = code) r.Check.diagnostics with
    | Some d -> d
    | None ->
      Alcotest.failf "%s missing %s (got: %s)" name code
        (String.concat "," (codes r))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s severity" code)
    true
    (d.Check.severity = severity);
  Alcotest.(check bool) "demo entry passes its expectation" true
    (Preflight.entry_ok e r)

let test_pv601_demo () =
  check_demo "demo/pv601-shape-mismatch" "PV601" Check.Error

let test_pv602_demo () =
  check_demo "demo/pv602-ambiguous-broadcast" "PV602" Check.Warning

let test_pv603_demo () = check_demo "demo/pv603-plate-rank" "PV603" Check.Warning
let test_pv604_demo () = check_demo "demo/pv604-plate-count" "PV604" Check.Error

(* Every previously-clean registry target must stay clean under the
   shape pass (and demo targets must keep producing their expected
   codes) — the acceptance criterion behind `ppvi check --shapes`. *)
let test_registry_all_ok () =
  let results = Preflight.run_all () in
  List.iter
    (fun (e, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s ok (got: %s)" e.Preflight.name
           (String.concat "," (codes r)))
        true
        (Preflight.entry_ok e r))
    results

(* Compile refusals are folded into the check report as info-severity
   PV501, so one `ppvi check` surfaces compileability too. The AIR
   pair refuses staging (data-dependent structure) but must stay a
   *clean* check target. *)
let test_pv501_in_check_report () =
  let e = demo_entry "air" in
  let r = Preflight.run e in
  let pv501 =
    List.filter (fun d -> d.Check.code = "PV501") r.Check.diagnostics
  in
  Alcotest.(check bool) "PV501 present in check report" true (pv501 <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "refusal is info severity" true
        (d.Check.severity = Check.Info))
    pv501;
  Alcotest.(check bool) "entry still ok" true (Preflight.entry_ok e r)

(* ------------------------------------------------------------------ *)
(* Static shapes == runtime shapes (compilable registry)               *)

let registry_programs entry =
  match entry.Preflight.make () with
  | Check.Program p -> [ (entry.Preflight.name, p) ]
  | Check.Pair { model; guide } ->
    [ (entry.Preflight.name ^ "/model", model);
      (entry.Preflight.name ^ "/guide", guide) ]
  | exception _ -> []

(* For every compilable registry program: each statically inferred
   plan-site shape, once its symbolic dims are resolved, must equal
   the shape the runtime actually binds in the interpreter's trace. *)
let static_shapes_match_runtime ~id (Gen.Packed prog) seed =
  match Compile.compile ~id (Gen.Packed prog) with
  | Compile.Refused _ -> true
  | Compile.Compiled plan ->
    let _, trace, _ = run_for (Gen.simulate prog) (Prng.key seed) in
    List.for_all
      (fun (addr, shape) ->
        match Shape.to_concrete shape with
        | None -> false (* plan-site shapes are always fully bound *)
        | Some static -> (
          match Trace.find_opt addr trace with
          | Some (Value.Real v) -> Ad.shape v = static
          | Some _ | None -> false))
      (Shape.of_plan plan)

let prop_static_shapes_match_runtime =
  QCheck.Test.make ~name:"static shapes == runtime shapes (registry)"
    ~count:20
    QCheck.(small_nat)
    (fun seed ->
      List.for_all
        (fun entry ->
          List.for_all
            (fun (id, p) ->
              static_shapes_match_runtime
                ~id:(Printf.sprintf "shape/%s#%d" id seed)
                p seed)
            (registry_programs entry))
        Preflight.entries)

(* ------------------------------------------------------------------ *)
(* Pooled interpreter runs: bit identity                               *)

(* Objectives built behind [Ad.checkpoint] run the interpreter with
   the segment pool as the ambient allocator. For every compilable
   registry program, simulate + log-density drawing their buffers from
   a pool must be bit-identical to heap-allocated runs; the pool is
   reset before each round, so later rounds recycle earlier rounds'
   buffers. *)
let check_arena_bit_identity ~id (Gen.Packed prog) seed =
  match Compile.compile ~id (Gen.Packed prog) with
  | Compile.Refused _ -> true
  | Compile.Compiled _ ->
    let pool = Tensor.Pool.create () in
    let run () =
      let _, tr, w = run_for (Gen.simulate prog) (Prng.key seed) in
      let d = run_for (Gen.log_density prog tr) (Prng.key seed) in
      (trace_bits tr, bits (scalar_of w), bits (scalar_of d))
    in
    let heap = run () in
    List.for_all
      (fun _ ->
        Tensor.Pool.reset pool;
        Tensor.set_pool (Some pool);
        let pooled = Fun.protect ~finally:(fun () -> Tensor.set_pool None) run in
        pooled = heap)
      [ 0; 1; 2 ]
    && Tensor.Pool.hits pool > 0

let prop_registry_arena_bit_identity =
  QCheck.Test.make
    ~name:"registry arena-compiled == interpreter (bitwise)" ~count:15
    QCheck.(small_nat)
    (fun seed ->
      List.for_all
        (fun entry ->
          List.for_all
            (fun (id, p) ->
              check_arena_bit_identity
                ~id:(Printf.sprintf "arena/%s#%d" id seed)
                p seed)
            (registry_programs entry))
        Preflight.entries)

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                         *)

let test_pool_recycles_buffers () =
  let p = Tensor.Pool.create () in
  let b1 = Tensor.Pool.alloc p 16 in
  Alcotest.(check int) "first alloc misses" 1 (Tensor.Pool.misses p);
  Array.fill b1 0 16 42.;
  Tensor.Pool.reset p;
  let b2 = Tensor.Pool.alloc p 16 in
  Alcotest.(check bool) "same physical buffer after reset" true (b1 == b2);
  Alcotest.(check int) "second alloc hits" 1 (Tensor.Pool.hits p);
  Alcotest.(check bool) "handed out zero-filled" true
    (Array.for_all (fun x -> x = 0.) b2);
  (* Without a reset, a second request must get a distinct buffer. *)
  let b3 = Tensor.Pool.alloc p 16 in
  Alcotest.(check bool) "no double hand-out" true (not (b2 == b3));
  Alcotest.(check int) "pool owns both buffers" 32 (Tensor.Pool.floats p)

(* A pool warmed by one generation pre-hits the next: after a reset,
   re-running the same computation takes every buffer from the free
   lists and grows the pool by nothing — the steady state the segment
   pool relies on. *)
let test_pool_warm_prehits () =
  let p = Tensor.Pool.create () in
  let store = Store.create () in
  Vae.register store (Prng.key 3);
  let images, _ = Data.digit_batch (Prng.key 4) 8 in
  let generation () =
    Tensor.Pool.reset p;
    Tensor.set_pool (Some p);
    Fun.protect
      ~finally:(fun () -> Tensor.set_pool None)
      (fun () ->
        let frame = Store.Frame.make store in
        scalar_of
          (Adev.expectation (Vae.elbo_per_datum frame images) (Prng.key 5)))
  in
  let cold = generation () in
  let misses = Tensor.Pool.misses p
  and hits = Tensor.Pool.hits p
  and floats = Tensor.Pool.floats p in
  Alcotest.(check bool) "cold generation allocates" true (misses > 0);
  let warm = generation () in
  Alcotest.(check int) "warm generation misses nothing" misses
    (Tensor.Pool.misses p);
  Alcotest.(check int) "every cold allocation pre-hits" (hits + misses)
    (Tensor.Pool.hits p);
  Alcotest.(check int) "pool does not grow" floats (Tensor.Pool.floats p);
  Alcotest.(check int64) "same result" (bits cold) (bits warm)

let test_pool_routes_op_outputs () =
  let p = Tensor.Pool.create () in
  Tensor.set_pool (Some p);
  Fun.protect
    ~finally:(fun () -> Tensor.set_pool None)
    (fun () ->
      let a = Tensor.ones [| 8 |] in
      let b = Tensor.add a a in
      Alcotest.(check bool) "ops allocate from the pool" true
        (Tensor.Pool.misses p > 0);
      Alcotest.(check (float 0.)) "pooled results are correct" 16.
        (Tensor.sum b));
  Alcotest.(check bool) "pool uninstalled" true (Tensor.current_pool () = None)

(* [Ad.checkpoint] installs the segment pool for its thunk and again
   for its replay during [backward]; both must put the caller's
   ambient pool back however they exit, since nothing above them
   restores it. *)
let test_checkpoint_restores_pool () =
  let outer = Tensor.Pool.create () in
  let restored ambient =
    match (Tensor.current_pool (), ambient) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false
  in
  List.iter
    (fun ambient ->
      Tensor.set_pool ambient;
      Fun.protect
        ~finally:(fun () -> Tensor.set_pool None)
        (fun () ->
          (match Ad.checkpoint (fun () -> failwith "thunk") with
          | _ -> Alcotest.fail "expected the thunk's exception"
          | exception Failure _ -> ());
          Alcotest.(check bool) "restored after a raising thunk" true
            (restored ambient);
          let x = Ad.const (Tensor.scalar 1.5) in
          let calls = ref 0 in
          let s =
            Ad.checkpoint (fun () ->
                incr calls;
                if !calls > 1 then failwith "replay";
                Ad.mul x x)
          in
          Alcotest.(check bool) "restored after the forward" true
            (restored ambient);
          (match Ad.backward s with
          | () -> Alcotest.fail "expected the replay's exception"
          | exception Failure _ -> ());
          Alcotest.(check bool) "restored after a raising replay" true
            (restored ambient)))
    [ None; Some outer ]

(* The VAE gradient step behind an [Ad.checkpoint] barrier, with the
   segment pool on vs off, must give bit-identical surrogates and
   gradients; the second pooled step recycles the first's buffers. *)
let test_vae_grad_arena_bit_identity () =
  let store = Store.create () in
  Vae.register store (Prng.key 3);
  let images, _ = Data.digit_batch (Prng.key 4) 16 in
  let segment = ref None in
  let grad_of pool =
    let frame = Store.Frame.make store in
    let s =
      Ad.checkpoint ~pool (fun () ->
          if pool then segment := Tensor.current_pool ();
          Adev.expectation (Vae.elbo_per_datum frame images) (Prng.key 5))
    in
    Ad.backward s;
    (bits (scalar_of s), grads_bits (Store.Frame.grads frame))
  in
  let heap = grad_of false in
  let first = grad_of true in
  let second = grad_of true in
  let check msg got =
    Alcotest.(check int64) (msg ^ ": surrogate bits") (fst heap) (fst got);
    Alcotest.(check (list (pair string (array int64))))
      (msg ^ ": gradient bits") (snd heap) (snd got)
  in
  check "first pooled step" first;
  check "second pooled step" second;
  match !segment with
  | Some p ->
    Alcotest.(check bool) "segment pool recycled buffers" true
      (Tensor.Pool.hits p > 0)
  | None -> Alcotest.fail "the thunk ran without the segment pool"

(* Multi-sample estimators stack several checkpointed samples before
   one backward. Each sample's segment resets the shared segment pool
   when it is built and again when it is replayed, so a reset reaching
   a tensor still in use would corrupt the result: the stacked VAE
   estimate under [remat] must equal the full tape bit for bit, on a
   second run too, which recycles the first run's buffers. *)
let test_arena_multi_sample_safety () =
  let store = Store.create () in
  Vae.register store (Prng.key 3);
  let images, _ = Data.digit_batch (Prng.key 4) 8 in
  let grad_of remat =
    let frame = Store.Frame.make store in
    let s =
      Adev.expectation_mean ~remat ~samples:3
        (Vae.elbo_per_datum frame images)
        (Prng.key 6)
    in
    Ad.backward s;
    (bits (scalar_of s), grads_bits (Store.Frame.grads frame))
  in
  let full = grad_of false in
  List.iter
    (fun msg ->
      let got = grad_of true in
      Alcotest.(check int64) (msg ^ ": stacked surrogate bits") (fst full)
        (fst got);
      Alcotest.(check (list (pair string (array int64))))
        (msg ^ ": gradient bits") (snd full) (snd got))
    [ "first remat run"; "second remat run" ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_static_shapes_match_runtime; prop_registry_arena_bit_identity ]

let suites =
  [ ( "shape",
      [ Alcotest.test_case "broadcast ok" `Quick test_broadcast_ok;
        Alcotest.test_case "broadcast mismatch" `Quick test_broadcast_mismatch;
        Alcotest.test_case "broadcast two-sided" `Quick
          test_broadcast_two_sided;
        Alcotest.test_case "symbolic dims" `Quick test_symbolic_dims;
        Alcotest.test_case "iid count parsing" `Quick test_iid_count;
        Alcotest.test_case "PV601 demo (shape mismatch)" `Quick test_pv601_demo;
        Alcotest.test_case "PV602 demo (ambiguous broadcast)" `Quick
          test_pv602_demo;
        Alcotest.test_case "PV603 demo (plate rank)" `Quick test_pv603_demo;
        Alcotest.test_case "PV604 demo (plate count)" `Quick test_pv604_demo;
        Alcotest.test_case "registry all ok under shape pass" `Slow
          test_registry_all_ok;
        Alcotest.test_case "PV501 folded into check report" `Quick
          test_pv501_in_check_report ]
      @ qcheck_cases );
    ( "arena",
      [ Alcotest.test_case "pool recycles buffers" `Quick
          test_pool_recycles_buffers;
        Alcotest.test_case "pool warm pre-hits" `Quick test_pool_warm_prehits;
        Alcotest.test_case "pool routes op outputs" `Quick
          test_pool_routes_op_outputs;
        Alcotest.test_case "checkpoint restores the ambient pool" `Quick
          test_checkpoint_restores_pool;
        Alcotest.test_case "vae grad arena bit-identical" `Slow
          test_vae_grad_arena_bit_identity;
        Alcotest.test_case "multi-sample arena safety" `Slow
          test_arena_multi_sample_safety ] ) ]
