(* Staging analysis: plan construction, PV501 refusals, plan-cache
   behavior, the fused Bernoulli-logits density, and the invariant
   that a compiled plan describes exactly the walk the interpreter
   takes — across the preflight registry, VAE batch sizes and plate
   extents. *)

open Gen.Syntax

let bits = Int64.bits_of_float

let float_bits_equal a b = Int64.equal (bits a) (bits b)

let tensor_bits_equal t1 t2 =
  Tensor.shape t1 = Tensor.shape t2
  &&
  let a = Tensor.to_array t1 and b = Tensor.to_array t2 in
  let ok = ref true in
  Array.iteri (fun i x -> if not (float_bits_equal x b.(i)) then ok := false) a;
  !ok

let scalar_of w = Tensor.to_scalar (Ad.value w)

(* Run an Adev computation for its returned value (constant-zero loss:
   no gradient flows, we only compare forward results bitwise). *)
let run_for m key =
  let out = ref None in
  ignore
    (Adev.run m key (fun x ->
         out := Some x;
         Ad.scalar 0.));
  Option.get !out

(* The instance index [i] of a sequential plate's address [addr[i]]. *)
let plate_index addr =
  let n = String.length addr in
  match String.rindex_opt addr '[' with
  | Some l when n >= 3 && addr.[n - 1] = ']' && l > 0 ->
    int_of_string_opt (String.sub addr (l + 1) (n - l - 2))
  | _ -> None

(* The invariant under test: a plan is the compiled form of a program,
   so it must name exactly the walk the interpreter takes. Every slot
   is bound in the interpreter's trace (a batched plate's value with
   the instance axis leading), every sequential plate binds its
   suffixed [addr[i]] family, nothing else is bound, and the
   interpreter's two transformations agree bit for bit: the log
   density [simulate] reports is the one [log_density] computes for
   the same trace. *)
let plan_matches_interpreter plan prog seed =
  let key = Prng.key seed in
  let _, trace, w = run_for (Gen.simulate prog) key in
  let steps = Array.to_list (Gen.Plan.steps plan) in
  let slots = Gen.Plan.slots plan in
  let step_ok s =
    match s.Gen.Plan.st_kind with
    | Gen.Plan.Sample_site -> Trace.mem s.Gen.Plan.st_addr trace
    | Gen.Plan.Plate_batched -> (
      match Trace.find_opt s.Gen.Plan.st_addr trace with
      | Some (Value.Real v) ->
        let shape = Ad.shape v in
        Array.length shape > 0 && shape.(0) = s.Gen.Plan.st_n
      | Some _ | None -> false)
    | Gen.Plan.Plate_seq ->
      List.for_all
        (fun i -> Trace.mem (Printf.sprintf "%s[%d]" s.Gen.Plan.st_addr i) trace)
        (List.init s.Gen.Plan.st_n Fun.id)
    | Gen.Plan.Observe_site -> true
  in
  let planned addr =
    Array.mem addr slots
    ||
    match plate_index addr with
    | None -> false
    | Some i ->
      List.exists
        (fun s -> s.Gen.Plan.st_kind = Gen.Plan.Plate_seq && i < s.Gen.Plan.st_n)
        steps
  in
  let d = run_for (Gen.log_density prog trace) key in
  List.for_all step_ok steps
  && List.for_all planned (Trace.keys trace)
  && float_bits_equal (scalar_of w) (scalar_of d)

(* Refusals are vacuously fine. *)
let check_plan_matches ~id (Gen.Packed prog) seed =
  match Compile.compile ~id (Gen.Packed prog) with
  | Compile.Refused _ -> true
  | Compile.Compiled plan -> plan_matches_interpreter plan prog seed

let registry_programs entry =
  match entry.Preflight.make () with
  | Check.Program p -> [ (entry.Preflight.name, p) ]
  | Check.Pair { model; guide } ->
    [ (entry.Preflight.name ^ "/model", model);
      (entry.Preflight.name ^ "/guide", guide) ]
  | exception _ -> []

(* QCheck property: every program in the preflight registry, across
   seeds, matches its compiled plan (or refuses). *)
let prop_registry_bit_identity =
  QCheck.Test.make ~name:"registry compiled == interpreter (bitwise)"
    ~count:25
    QCheck.(small_nat)
    (fun seed ->
      List.for_all
        (fun entry ->
          List.for_all
            (fun (id, p) ->
              check_plan_matches ~id:(Printf.sprintf "%s#%d" id seed) p seed)
            (registry_programs entry))
        Preflight.entries)

(* Same property over the VAE pair across batch sizes (plate extents)
   and seeds, plus the plan's static shapes: each batch size gets its
   own staging, so the planned shapes vary with it. *)
let prop_vae_batch_sizes =
  QCheck.Test.make ~name:"vae compiled == interpreter across batch sizes"
    ~count:12
    QCheck.(pair (int_range 1 9) small_nat)
    (fun (batch, seed) ->
      let store = Store.create () in
      Vae.register store (Prng.key 11);
      let frame = Store.Frame.make store in
      let images, _ = Data.digit_batch (Prng.key (100 + seed)) batch in
      let check part (Gen.Packed prog) =
        match
          Compile.compile
            ~id:(Printf.sprintf "test/vae-b%d-s%d/%s" batch seed part)
            (Gen.Packed prog)
        with
        | Compile.Refused _ -> false (* both halves of the VAE stage *)
        | Compile.Compiled plan ->
          plan_matches_interpreter plan prog seed
          &&
          let _, trace, _ = run_for (Gen.simulate prog) (Prng.key seed) in
          List.for_all
            (fun (addr, shape) ->
              match (Shape.to_concrete shape, Trace.find_opt addr trace) with
              | Some static, Some (Value.Real v) -> Ad.shape v = static
              | _ -> false)
            (Shape.of_plan plan)
      in
      check "model" (Gen.Packed (Vae.model frame images))
      && check "guide" (Gen.Packed (Vae.guide frame images)))

(* And across plate extents for an explicit Gen.plate program (batched
   lowering) and an index-dependent body (sequential fallback once
   [n > 1]): the plan's lowering decision is the one the interpreter
   makes. *)
let prop_plate_domains =
  QCheck.Test.make ~name:"plates compiled == interpreter across domain counts"
    ~count:20
    QCheck.(pair (int_range 1 12) small_nat)
    (fun (n, seed) ->
      let same_row _ =
        Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "row"
      in
      let indexed_row i =
        Gen.sample
          (Dist.normal_reparam (Ad.scalar (float_of_int i)) (Ad.scalar 1.))
          "row"
      in
      let batched =
        let* xs = Gen.plate ~n same_row in
        let s = Array.fold_left Ad.add (Ad.scalar 0.) xs in
        Gen.observe (Dist.normal_reparam s (Ad.scalar 1.)) (Ad.scalar 0.5)
      in
      let sequential =
        let* _ = Gen.plate ~n indexed_row in
        Gen.return ()
      in
      let lowered ~id prog body =
        let kind =
          match Gen.plate_decision ~n body with
          | Gen.Plate_batchable _ -> Gen.Plan.Plate_batched
          | Gen.Plate_sequential -> Gen.Plan.Plate_seq
        in
        match Compile.compile ~id (Gen.Packed prog) with
        | Compile.Refused _ -> false
        | Compile.Compiled plan ->
          Array.exists
            (fun s -> s.Gen.Plan.st_kind = kind && s.Gen.Plan.st_n = n)
            (Gen.Plan.steps plan)
          && plan_matches_interpreter plan prog seed
      in
      lowered ~id:(Printf.sprintf "test/plate-b%d-s%d" n seed) batched same_row
      && lowered
           ~id:(Printf.sprintf "test/plate-s%d-s%d" n seed)
           sequential indexed_row
      && (n = 1 || Gen.plate_decision ~n indexed_row = Gen.Plate_sequential))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let compiled_exn = function
  | Compile.Compiled p -> p
  | Compile.Refused r -> Alcotest.failf "unexpected refusal: %s" r.r_reason

(* An index-dependent plate body must take the sequential fallback;
   pin the plan shape. *)
let test_seq_fallback_site () =
  let prog =
    let* _ =
      Gen.plate ~n:3 (fun i ->
          Gen.sample
            (Dist.normal_reparam (Ad.scalar (float_of_int i)) (Ad.scalar 1.))
            "w")
    in
    Gen.return ()
  in
  let plan = compiled_exn (Compile.compile ~id:"unit/seqfb" (Gen.Packed prog)) in
  Alcotest.(check int) "one sequential fallback" 1 (Gen.Plan.seq_fallbacks plan);
  Alcotest.(check int) "no slots (the plate binds suffixed sites)" 0
    (Array.length (Gen.Plan.slots plan));
  let step = (Gen.Plan.steps plan).(0) in
  Alcotest.(check bool) "kind is Plate_seq" true
    (step.Gen.Plan.st_kind = Gen.Plan.Plate_seq);
  Alcotest.(check int) "plate extent pinned" 3 step.Gen.Plan.st_n

let test_batched_plate_site () =
  let prog =
    let* _ =
      Gen.plate ~n:4 (fun _ ->
          Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "z")
    in
    Gen.return ()
  in
  let plan = compiled_exn (Compile.compile ~id:"unit/batched" (Gen.Packed prog)) in
  Alcotest.(check int) "no fallbacks" 0 (Gen.Plan.seq_fallbacks plan);
  Alcotest.(check (array string)) "slot table" [| "z" |] (Gen.Plan.slots plan);
  let step = (Gen.Plan.steps plan).(0) in
  Alcotest.(check bool) "kind is Plate_batched" true
    (step.Gen.Plan.st_kind = Gen.Plan.Plate_batched)

(* [Plan.make] interns the trace-binding steps' addresses into slots in
   step order, counts sequential fallbacks, and refuses an address
   bound twice. *)
let test_plan_make_interns_slots () =
  let step kind addr =
    { Gen.Plan.st_kind = kind;
      st_addr = addr;
      st_slot = 42;
      st_dist = "normal";
      st_strategy = "REPARAM";
      st_n = 1;
      st_shape = None;
      st_fused = false }
  in
  let plan =
    Gen.Plan.make ~id:"unit/make"
      [ step Gen.Plan.Sample_site "a";
        step Gen.Plan.Observe_site "normal";
        step Gen.Plan.Plate_seq "w";
        step Gen.Plan.Plate_batched "z" ]
  in
  Alcotest.(check string) "id" "unit/make" (Gen.Plan.id plan);
  Alcotest.(check (array string)) "slot table" [| "a"; "z" |]
    (Gen.Plan.slots plan);
  Alcotest.(check (list int)) "slot per step" [ 0; -1; -1; 1 ]
    (Array.to_list (Array.map (fun s -> s.Gen.Plan.st_slot) (Gen.Plan.steps plan)));
  Alcotest.(check int) "one sequential fallback" 1 (Gen.Plan.seq_fallbacks plan);
  match
    Gen.Plan.make ~id:"unit/dup"
      [ step Gen.Plan.Sample_site "a"; step Gen.Plan.Plate_batched "a" ]
  with
  | _ -> Alcotest.fail "a duplicate address must be refused"
  | exception Invalid_argument _ -> ()

(* The canonical dynamic-structure program: a REINFORCE probe visits
   both branch arms, the arms bind different sites, and the compiler
   must refuse with a clear PV501 rather than bake in one arm. *)
let test_dynamic_structure_refusal () =
  let prog =
    let* x =
      Gen.sample (Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.)) "x"
    in
    if Gen.rigid x > 0. then
      let* _ =
        Gen.sample (Dist.normal_reinforce (Ad.scalar 1.) (Ad.scalar 1.)) "pos"
      in
      Gen.return ()
    else Gen.return ()
  in
  match Compile.compile ~id:"unit/dynamic" (Gen.Packed prog) with
  | Compile.Compiled _ -> Alcotest.fail "dynamic structure must refuse"
  | Compile.Refused r ->
    Alcotest.(check string) "diagnostic code" "PV501" r.Compile.r_code;
    let mentions needle =
      let hay = r.Compile.r_reason in
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      "reason names data-dependent structure" true
      (mentions "differs across execution paths")

let test_enum_refusal () =
  let prog = Gen.map (fun _ -> ()) (Gen.sample (Dist.flip_enum (Ad.scalar 0.4)) "c") in
  match Compile.compile ~id:"unit/enum" (Gen.Packed prog) with
  | Compile.Compiled _ -> Alcotest.fail "ENUM must refuse"
  | Compile.Refused r ->
    Alcotest.(check string) "code" "PV501" r.Compile.r_code;
    Alcotest.(check (option string)) "address" (Some "c") r.Compile.r_address

let test_plan_cache () =
  Compile.reset_cache ();
  let prog () =
    Gen.map (fun _ -> ())
      (Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "x")
  in
  Obs.configure ~enabled:true ();
  Obs.reset ();
  let r1 = Compile.plan_for ~id:"unit/cache" (Gen.Packed (prog ())) in
  let r2 = Compile.plan_for ~id:"unit/cache" (Gen.Packed (prog ())) in
  Alcotest.(check bool) "second lookup is the cached result" true (r1 == r2);
  Alcotest.(check int) "one miss" 1 (Obs.counter_value "compile/plan_miss");
  Alcotest.(check int) "one hit" 1 (Obs.counter_value "compile/plan_hit");
  Compile.invalidate "unit/cache";
  let r3 = Compile.plan_for ~id:"unit/cache" (Gen.Packed (prog ())) in
  Alcotest.(check bool) "invalidate forces a re-stage" true (not (r3 == r1));
  Alcotest.(check int) "second miss" 2 (Obs.counter_value "compile/plan_miss");
  Alcotest.(check bool) "re-staged id listed" true
    (List.mem "unit/cache" (Compile.cached_ids ()));
  Obs.reset ();
  Obs.configure ~enabled:false ();
  Compile.reset_cache ()

(* [Vae.elbo_per_datum ?compiled] is kept for the benchmark and
   ignored: the staged ELBO must be the interpreter's, surrogate AND
   gradients, bit for bit. *)
let test_elbo_staged_bit_identity () =
  let store = Store.create () in
  Vae.register store (Prng.key 3);
  let images, _ = Data.digit_batch (Prng.key 4) 6 in
  let grad_of compiled =
    let frame = Store.Frame.make store in
    let s =
      Adev.expectation (Vae.elbo_per_datum ~compiled frame images) (Prng.key 5)
    in
    Ad.backward s;
    (scalar_of s, Store.Frame.grads frame)
  in
  let v0, g0 = grad_of false in
  let v1, g1 = grad_of true in
  Alcotest.(check bool) "surrogate bits equal" true (float_bits_equal v0 v1);
  List.iter2
    (fun (n0, t0) (n1, t1) ->
      Alcotest.(check string) "param order" n0 n1;
      Alcotest.(check bool) (n0 ^ " grad bits equal") true
        (tensor_bits_equal t0 t1))
    g0 g1

(* [Train.fit ?compiled] stages programs before step 0 and nothing
   else: a staged run's objectives and final parameters are the
   unstaged run's, bit for bit. *)
let test_fit_staging_is_analysis () =
  let images, _ = Data.digit_batch (Prng.key 21) 8 in
  let train compiled =
    Compile.reset_cache ();
    let store = Store.create () in
    Vae.register store (Prng.key 20);
    let staged =
      if compiled then
        let frame = Store.Frame.make store in
        [ ("test/fit/vae/model", Gen.Packed (Vae.model frame images));
          ("test/fit/vae/guide", Gen.Packed (Vae.guide frame images)) ]
      else []
    in
    let reports =
      Train.fit ~store ~optim:(Optim.adam ~lr:3e-3 ()) ~compiled:staged
        ~steps:3
        ~objective:(fun frame _ -> Vae.elbo_per_datum frame images)
        (Prng.key 22)
    in
    let objectives = List.map (fun r -> bits r.Train.objective) reports in
    let params =
      List.map
        (fun n ->
          (n, Array.map bits (Tensor.to_array (Store.tensor store n))))
        (Store.names store)
    in
    (objectives, params)
  in
  let plain = train false in
  let staged = train true in
  Alcotest.(check bool) "staging left a cached plan" true
    (List.mem "test/fit/vae/model" (Compile.cached_ids ()));
  Compile.reset_cache ();
  Alcotest.(check (list int64)) "objective bits" (fst plain) (fst staged);
  Alcotest.(check (list (pair string (array int64))))
    "parameter bits" (snd plain) (snd staged)

(* The fused Bernoulli-logits scoring path (leaf observations) must
   agree with the composed softplus formula — values and logits
   gradient. *)
let test_fused_bernoulli_density () =
  let key = Prng.key 17 in
  let raw =
    Tensor.map (fun u -> u -. 0.5) (Prng.uniform_tensor key [| 32 |])
  in
  let x =
    Ad.const
      (Tensor.map
         (fun u -> if u > 0.5 then 1. else 0.)
         (Prng.uniform_tensor (Prng.fold_in key 1) [| 32 |]))
  in
  (* Separate leaves over the same values: each formula gets its own
     gradient accumulator. *)
  let l_fused = Ad.const raw and l_composed = Ad.const raw in
  let fused = (Dist.bernoulli_logits_vector l_fused).Dist.log_density x in
  (* Re-derive the composed formula directly (what non-leaf x uses). *)
  let composed =
    let open Ad.O in
    Ad.neg
      (Ad.sum
         ((x * Ad.softplus (Ad.neg l_composed))
         + ((Ad.scalar 1. - x) * Ad.softplus l_composed)))
  in
  Alcotest.(check (float 1e-9)) "values agree" (scalar_of composed)
    (scalar_of fused);
  Ad.backward fused;
  Ad.backward composed;
  let fa = Tensor.to_array (Ad.grad l_fused)
  and ca = Tensor.to_array (Ad.grad l_composed) in
  Array.iteri
    (fun i g -> Alcotest.(check (float 1e-9)) "logits grad agrees" ca.(i) g)
    fa

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_registry_bit_identity; prop_vae_batch_sizes; prop_plate_domains ]

let suites =
  [ ( "compile",
      [ Alcotest.test_case "seq fallback site" `Quick test_seq_fallback_site;
        Alcotest.test_case "batched plate site" `Quick test_batched_plate_site;
        Alcotest.test_case "plan make interns slots" `Quick
          test_plan_make_interns_slots;
        Alcotest.test_case "dynamic structure refuses (PV501)" `Quick
          test_dynamic_structure_refusal;
        Alcotest.test_case "ENUM refuses (PV501)" `Quick test_enum_refusal;
        Alcotest.test_case "plan cache hit/miss/invalidate" `Quick
          test_plan_cache;
        Alcotest.test_case "staged ELBO bit-identical (VAE)" `Slow
          test_elbo_staged_bit_identity;
        Alcotest.test_case "fit staging is analysis only" `Slow
          test_fit_staging_is_analysis;
        Alcotest.test_case "fused bernoulli-logits density" `Quick
          test_fused_bernoulli_density ]
      @ qcheck_cases ) ]
