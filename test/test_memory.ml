(* Memory-scaled training: gradient checkpointing must be bit-exact
   under rematerialization (segment pool included), the sharded
   data-parallel driver must be bit-reproducible across domain counts
   (fault injection included), and the parallel/profile counters must
   reset per run. *)

open Adev.Syntax

let bits = Int64.bits_of_float
let tensor_bits t = Array.map bits (Tensor.to_array t)
let grads_bits gs = List.map (fun (n, g) -> (n, tensor_bits g)) gs

let store_bits store =
  List.map
    (fun name -> (name, tensor_bits (Store.tensor store name)))
    (Store.names store)

let centered key shape =
  Tensor.map (fun u -> u -. 0.5) (Prng.uniform_tensor key shape)

(* ------------------------------------------------------------------ *)
(* Checkpoint barrier unit tests.                                      *)

let test_checkpoint_chain () =
  let run remat =
    let p = Ad.const (centered (Prng.key 3) [| 4 |]) in
    let mk () = Ad.sum (Ad.mul (Ad.softplus p) (Ad.exp (Ad.scale 0.5 p))) in
    let root = if remat then Ad.checkpoint mk else mk () in
    Ad.backward root;
    (bits (Tensor.to_scalar (Ad.value root)), tensor_bits (Ad.grad p))
  in
  Alcotest.(check bool) "value and grad bits equal" true (run false = run true)

let test_checkpoint_nested () =
  let run remat =
    let p = Ad.const (centered (Prng.key 4) [| 5 |]) in
    let inner () = Ad.softplus (Ad.mul p p) in
    let mk () =
      let a = if remat then Ad.checkpoint inner else inner () in
      Ad.sum (Ad.mul a (Ad.exp (Ad.scale (-0.3) p)))
    in
    let root = if remat then Ad.checkpoint mk else mk () in
    Ad.backward root;
    (bits (Tensor.to_scalar (Ad.value root)), tensor_bits (Ad.grad p))
  in
  Alcotest.(check bool) "nested barriers bit-exact" true (run false = run true)

(* A thunk that returns a pre-existing node builds no barrier: the node
   itself comes back and gradients flow as if no checkpoint existed. *)
let test_checkpoint_degenerate () =
  let p = Ad.const (Tensor.scalar 1.5) in
  let c = Ad.checkpoint (fun () -> p) in
  Alcotest.(check bool) "same node" true (Ad.id c = Ad.id p);
  let root = Ad.mul c c in
  Ad.backward root;
  Alcotest.(check (float 1e-12)) "grad = 2p" 3.0
    (Tensor.to_scalar (Ad.grad p))

let test_remat_replays_counted () =
  let p = Ad.const (centered (Prng.key 5) [| 3 |]) in
  let seg i () = Ad.sum (Ad.softplus (Ad.scale (float_of_int i +. 1.) p)) in
  let root =
    Ad.add (Ad.checkpoint (seg 0)) (Ad.checkpoint (seg 1))
  in
  let before = Ad.remat_replays () in
  Ad.backward root;
  Alcotest.(check bool) "two replays recorded" true
    (Ad.remat_replays () >= before + 2)

(* Checkpointing must actually cut the peak live tape: the same sliced
   VAE step with barriers on holds at most half the nodes it holds with
   barriers off (the bench gates the full 2x at batch 256; this is the
   in-tree smoke at a small batch — node counts are batch-independent). *)
let test_peak_live_cut () =
  let store = Store.create () in
  Vae.register store (Prng.key 1);
  let key = Prng.key 2 in
  let full =
    Vae.grad_step_peak_live store ~batch:64 ~segments:4 ~remat:false key
  in
  let remat =
    Vae.grad_step_peak_live store ~batch:64 ~segments:4 ~remat:true key
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak halved (full %d, remat %d)" full remat)
    true
    (remat * 2 <= full)

(* ------------------------------------------------------------------ *)
(* Parallel counters (per-run profile figures).                        *)

let test_parallel_reset_counters () =
  Parallel.run ~blocks:3 (fun _ -> ());
  Alcotest.(check bool) "jobs counted" true (Parallel.jobs_run () > 0);
  Parallel.reset_counters ();
  Alcotest.(check int) "jobs reset" 0 (Parallel.jobs_run ());
  Alcotest.(check int) "parallel jobs reset" 0 (Parallel.jobs_parallel ());
  Alcotest.(check int) "blocks reset" 0 (Parallel.blocks_run ())

(* ------------------------------------------------------------------ *)
(* Sharded driver determinism: same shard count, any domain count,
   with and without remat, with and without an active fault plan. *)

let fit_store ~domains ~remat ?fault seed =
  Parallel.set_domains domains;
  (match fault with
  | None -> ()
  | Some spec -> (
    match Fault.plan_of_string ~seed:0 spec with
    | Ok p -> Fault.install p
    | Error e -> Alcotest.fail e));
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Parallel.set_domains 1)
    (fun () ->
      let store = Store.create () in
      Vae.register store (Prng.key seed);
      let optim = Optim.adam ~lr:1e-3 () in
      let spec = Vae.step_spec ~shards:4 ~remat ~batch:16 (Prng.key seed) in
      ignore (Train.fit_spec ~store ~optim ~steps:3 ~spec (Prng.key seed));
      store_bits store)

let test_sharded_fit_deterministic () =
  let reference = fit_store ~domains:1 ~remat:false 5 in
  Alcotest.(check bool) "2 domains bit-identical" true
    (fit_store ~domains:2 ~remat:false 5 = reference);
  Alcotest.(check bool) "4 domains bit-identical" true
    (fit_store ~domains:4 ~remat:false 5 = reference);
  Alcotest.(check bool) "remat bit-identical" true
    (fit_store ~domains:4 ~remat:true 5 = reference)

let test_sharded_fit_fault_deterministic () =
  let spec = "grad-nan=0.3 oom=0.2" in
  let reference = fit_store ~domains:1 ~remat:false ~fault:spec 6 in
  Alcotest.(check bool) "4 domains under faults bit-identical" true
    (fit_store ~domains:4 ~remat:true ~fault:spec 6 = reference)

(* MVD under sharding: the coupling replays' detached-sampling mark is
   per domain, so a shard's replay cannot change how a concurrent shard
   draws its REPARAM sites. One MVD site followed by many REPARAM sites
   makes any leak visible in the [r] gradient. *)
let mvd_spec =
  { Train.shards = 4;
    remat = false;
    make =
      (fun frame ~step:_ ~shard:_ ~shards:_ key ->
        let r = Store.Frame.get frame "r" in
        let obj =
          let* x = Adev.sample (Dist.normal_mvd r (Ad.scalar 1.)) in
          let rec go i acc =
            if i = 0 then Adev.return acc
            else
              let* z = Adev.sample (Dist.normal_reparam r (Ad.scalar 1.)) in
              go (i - 1) (Ad.add acc (Ad.mul z x))
          in
          go 50 (Ad.scalar 0.)
        in
        Adev.expectation obj key) }

let with_domains domains f =
  let saved = Parallel.domains () in
  Parallel.set_domains domains;
  Fun.protect ~finally:(fun () -> Parallel.set_domains saved) f

let mvd_shard_bits ~domains =
  with_domains domains (fun () ->
      let store = Store.create () in
      Store.ensure store "r" (fun () -> Tensor.scalar 0.3);
      List.init 20 (fun step ->
          let v, grads = Train.shard_step ~store ~spec:mvd_spec ~step (Prng.key 8) in
          (bits v, grads_bits grads)))

(* A mark left set by an earlier sharded run would detach every site
   and zero the [r] gradient. *)
let check_live_gradients runs =
  let zero = bits 0. in
  Alcotest.(check bool) "gradients are non-zero" true
    (List.for_all
       (fun (_, grads) -> List.for_all (fun (_, g) -> g <> [| zero |]) grads)
       runs)

let test_mvd_shards_across_domains () =
  let reference = mvd_shard_bits ~domains:1 in
  check_live_gradients reference;
  Alcotest.(check bool) "2 domains bit-identical" true
    (mvd_shard_bits ~domains:2 = reference);
  Alcotest.(check bool) "4 domains bit-identical" true
    (mvd_shard_bits ~domains:4 = reference)

let test_mvd_shards_leave_no_state () =
  let fresh = mvd_shard_bits ~domains:1 in
  check_live_gradients fresh;
  ignore (mvd_shard_bits ~domains:4);
  Alcotest.(check bool) "1 domain after 4 equals a fresh run" true
    (mvd_shard_bits ~domains:1 = fresh)

(* A REINFORCE-baseline cell is shared by every shard: a sharded step
   that reaches one fails with a typed error before any update, on any
   domain count. *)
let baseline_fit ~domains ~shards =
  with_domains domains (fun () ->
      let store = Store.create () in
      Store.ensure store "p" (fun () -> Tensor.scalar 0.);
      let cell = Baseline.create () in
      let objectives frame _step =
        let p = Store.Frame.get frame "p" in
        let prog =
          Gen.sample (Dist.flip_reinforce_bl cell (Ad.sigmoid p)) "coin"
        in
        List.init 4 (fun _ ->
            Adev.map
              (fun (b, _, _) -> if b then Ad.sigmoid p else Ad.scalar 0.)
              (Gen.simulate prog))
      in
      let before = store_bits store in
      let outcome =
        match
          Train.fit_batch ~store ~optim:(Optim.adam ~lr:0.1 ()) ~shards
            ~steps:3 ~objectives (Prng.key 1)
        with
        | reports -> Ok (List.length reports)
        | exception Adev.Unshardable_site addr -> Error addr
      in
      (outcome, store_bits store = before, Baseline.observations cell))

let test_baseline_in_shard_raises () =
  List.iter
    (fun domains ->
      match baseline_fit ~domains ~shards:2 with
      | Error addr, unchanged, observed ->
        Alcotest.(check string) "site address" "coin" addr;
        Alcotest.(check bool) "no update applied" true unchanged;
        Alcotest.(check int) "baseline cell untouched" 0 observed
      | Ok _, _, _ ->
        Alcotest.failf "%d domains: expected Adev.Unshardable_site" domains)
    [ 1; 4 ];
  match baseline_fit ~domains:1 ~shards:1 with
  | Ok steps, unchanged, observed ->
    Alcotest.(check int) "shards:1 trains" 3 steps;
    Alcotest.(check bool) "parameters moved" false unchanged;
    Alcotest.(check int) "baseline updated per datum" 12 observed
  | Error addr, _, _ -> Alcotest.failf "shards:1 raised at %s" addr

(* ------------------------------------------------------------------ *)
(* QCheck: remat is bit-exact across estimator strategies and sample
   counts; the sliced VAE surrogate is bit-exact across segmentations;
   every (deterministic) registry program survives a value-level
   checkpoint barrier unchanged. *)

let sigmoid p = Ad.exp (Ad.scale (-1.) (Ad.softplus (Ad.scale (-1.) p)))

(* One objective per estimator family. REINFORCE-with-baseline is
   deliberately absent: its cell mutates between construction and
   replay, which is exactly the documented remat exclusion
   (docs/MEMORY.md). *)
let remat_cases =
  [ (fun p ->
      let* x = Adev.sample (Dist.normal_reparam p (Ad.scalar 1.)) in
      Adev.return (Ad.mul x x));
    (fun p ->
      let* x = Adev.sample (Dist.normal_reinforce p (Ad.scalar 1.)) in
      Adev.return (Ad.mul x x));
    (fun p ->
      let* k = Adev.sample (Dist.binomial_enum 3 (sigmoid p)) in
      Adev.return (Ad.scale (float_of_int k) (Ad.softplus p))) ]

let prop_remat_expectation_mean =
  QCheck.Test.make ~name:"expectation_mean remat == full (bitwise)" ~count:40
    QCheck.(pair (int_range 0 2) (pair small_nat (int_range 1 4)))
    (fun (case, (seed, samples)) ->
      let build = List.nth remat_cases case in
      let run remat =
        let p = Ad.const (Tensor.scalar (0.2 +. (0.1 *. float_of_int (seed mod 5)))) in
        let s =
          Adev.expectation_mean ~remat ~samples (build p) (Prng.key seed)
        in
        Ad.backward s;
        (bits (Tensor.to_scalar (Ad.value s)), tensor_bits (Ad.grad p))
      in
      run false = run true)

let prop_vae_sliced_remat =
  QCheck.Test.make ~name:"vae sliced remat == plain (bitwise grads)" ~count:8
    QCheck.(pair (int_range 1 5) small_nat)
    (fun (segments, seed) ->
      let store = Store.create () in
      Vae.register store (Prng.key 7);
      let images, _ = Data.digit_batch (Prng.key (50 + seed)) 12 in
      let run remat =
        let frame = Store.Frame.make store in
        let s = Vae.elbo_sliced ~segments ~remat frame images (Prng.key seed) in
        Ad.backward s;
        grads_bits (Store.Frame.grads frame)
      in
      run false = run true)

let registry_programs entry =
  match entry.Preflight.make () with
  | Check.Program p -> [ p ]
  | Check.Pair { model; guide } -> [ model; guide ]
  | exception _ -> []

(* Demo entries deliberately raise diagnostics when simulated; those
   programs have no surrogate to compare, so they come back as None. *)
let surrogate_value (Gen.Packed p) key =
  let m = Adev.map (fun (_, _, w) -> w) (Gen.simulate p) in
  match Adev.expectation m key with
  | s -> Some (Ad.value s)
  | exception _ -> None

(* Stateful programs (REINFORCE-baseline cells) are not run-twice
   deterministic, so a construction-vs-barrier comparison is
   meaningless for them; probe first and skip. *)
let run_twice_deterministic p key =
  match (surrogate_value p key, surrogate_value p key) with
  | Some a, Some b -> tensor_bits a = tensor_bits b
  | _ -> false

let prop_registry_checkpoint_value =
  QCheck.Test.make ~name:"registry checkpoint == direct (value bits)"
    ~count:10 QCheck.small_nat
    (fun seed ->
      List.for_all
        (fun entry ->
          List.for_all
            (fun p ->
              let key = Prng.key seed in
              (not (run_twice_deterministic p key))
              ||
              match surrogate_value p key with
              | None -> true
              | Some direct ->
                let barred =
                  Ad.value
                    (Ad.checkpoint (fun () ->
                         let m =
                           let (Gen.Packed prog) = p in
                           Adev.map (fun (_, _, w) -> w) (Gen.simulate prog)
                         in
                         Adev.expectation m key))
                in
                tensor_bits direct = tensor_bits barred)
            (registry_programs entry))
        Preflight.entries)

(* The tape-free scope over the registry: [simulate]'s weight and
   [log_density] of the trace it drew are the same bits inside
   [Ad.primal] as taped. Programs with ENUM sites (the categorical
   resampling step of [normalize] among them) must still enumerate
   there: the scope is not ADEV's detached sampling. *)
let trace_of (Gen.Packed prog) key =
  let drawn = ref None in
  match
    Adev.run (Gen.simulate prog) key (fun (_, t, w) ->
        drawn := Some t;
        w)
  with
  | _ -> !drawn
  | exception _ -> None

let density_value (Gen.Packed prog) trace key =
  match Adev.expectation (Gen.log_density prog trace) key with
  | s -> Some (Ad.value s)
  | exception _ -> None

let same_bits a b =
  match (a, b) with
  | Some a, Some b -> tensor_bits a = tensor_bits b
  | None, None -> true
  | _ -> false

let prop_registry_primal_value =
  QCheck.Test.make ~name:"registry primal == taped (value bits)" ~count:10
    QCheck.small_nat
    (fun seed ->
      List.for_all
        (fun entry ->
          List.for_all
            (fun p ->
              let key = Prng.key seed in
              (not (run_twice_deterministic p key))
              || same_bits (surrogate_value p key)
                   (Ad.primal (fun () -> surrogate_value p key))
                 &&
                 match trace_of p key with
                 | None -> true
                 | Some t ->
                   same_bits (density_value p t key)
                     (Ad.primal (fun () -> density_value p t key)))
            (registry_programs entry))
        Preflight.entries)

let test_primal_still_enumerates () =
  let p = Ad.scalar 0.3 in
  let m =
    let* b = Adev.sample (Dist.flip_enum p) in
    Adev.return (if b then Ad.scalar 1. else Ad.scalar 0.)
  in
  let taped = Ad.to_float (Adev.expectation m (Prng.key 0)) in
  let untaped = Ad.primal (fun () -> Ad.to_float (Adev.expectation m (Prng.key 0))) in
  Alcotest.(check bool) "exact expectation" true (bits taped = bits 0.3);
  Alcotest.(check bool) "same bits in the scope" true (bits untaped = bits taped)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_remat_expectation_mean; prop_vae_sliced_remat;
      prop_registry_checkpoint_value; prop_registry_primal_value ]

let suites =
  [ ( "memory",
      [ Alcotest.test_case "checkpoint chain bit-exact" `Quick
          test_checkpoint_chain;
        Alcotest.test_case "nested checkpoints bit-exact" `Quick
          test_checkpoint_nested;
        Alcotest.test_case "degenerate checkpoint" `Quick
          test_checkpoint_degenerate;
        Alcotest.test_case "replay counter advances" `Quick
          test_remat_replays_counted;
        Alcotest.test_case "checkpoint halves peak live tape" `Quick
          test_peak_live_cut;
        Alcotest.test_case "parallel counters reset" `Quick
          test_parallel_reset_counters;
        Alcotest.test_case "sharded fit bit-identical across domains" `Slow
          test_sharded_fit_deterministic;
        Alcotest.test_case "sharded fit deterministic under faults" `Slow
          test_sharded_fit_fault_deterministic;
        Alcotest.test_case "MVD shards leave no state behind" `Quick
          test_mvd_shards_leave_no_state;
        Alcotest.test_case "MVD shard grads bit-identical across domains"
          `Quick test_mvd_shards_across_domains;
        Alcotest.test_case "baseline site in a sharded step raises" `Quick
          test_baseline_in_shard_raises;
        Alcotest.test_case "primal scope still enumerates" `Quick
          test_primal_still_enumerates ]
      @ qcheck_cases ) ]
