(* The training resilience subsystem: anomaly detection, guard
   policies, checkpoint/rollback with deterministic reseeding, store
   persistence, and optimizer gradient hygiene.

   The fault-injection tests drive a real [Train.fit_surrogate] /
   [Train.fit] loop whose objective is forced to NaN at a chosen step
   through a test-only wrapper, and assert the behavior each policy
   promises. *)

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

let scalar_of store name = Tensor.to_scalar (Store.tensor store name)

(* A tiny deterministic workload: maximize -(x - 3)^2 from x = 0. *)
let quadratic_store () =
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 0.);
  store

let quadratic_surrogate frame _step _key =
  let x = Store.Frame.get frame "x" in
  Ad.neg Ad.O.((x - Ad.scalar 3.) * (x - Ad.scalar 3.))

(* Wrap a surrogate so its value (and hence its gradients) are NaN when
   [fire] says so. *)
let inject_nan ~fire surrogate frame step key =
  let s = surrogate frame step key in
  if fire step then Ad.O.(Ad.scalar Float.nan * s) else s

(* Guard.scan *)

let test_scan_classifies () =
  let grads =
    [ ("ok", Tensor.of_list1 [ 1.; 2. ]);
      ("bad_nan", Tensor.of_list1 [ 1.; Float.nan ]);
      ("bad_inf", Tensor.of_list1 [ Float.infinity; 2. ]) ]
  in
  let anomalies = Guard.scan ~step:7 ~objective:1.5 ~grads in
  Alcotest.(check int) "two grad anomalies" 2 (List.length anomalies);
  let names = List.map (fun a -> a.Guard.name) anomalies in
  Alcotest.(check (list string)) "names" [ "bad_nan"; "bad_inf" ] names;
  List.iter
    (fun a ->
      match (a.Guard.name, a.Guard.kind) with
      | "bad_nan", Guard.Nan | "bad_inf", Guard.Inf -> ()
      | n, k -> Alcotest.failf "wrong kind %s for %s" (Guard.kind_name k) n)
    anomalies;
  (* A NaN objective is reported first, under the name "objective". *)
  let anomalies = Guard.scan ~step:0 ~objective:Float.nan ~grads:[] in
  match anomalies with
  | [ { Guard.name = "objective"; kind = Guard.Nan; step = 0; _ } ] -> ()
  | _ -> Alcotest.fail "objective anomaly not reported"

(* Fail_fast *)

let test_fail_fast_surfaces_diverged () =
  let store = quadratic_store () in
  let optim = Optim.adam ~lr:0.1 () in
  let guard = Guard.create ~policy:Guard.Fail_fast () in
  let fire step = step = 6 in
  match
    Train.fit_surrogate ~store ~optim ~guard ~steps:12
      ~surrogate:(inject_nan ~fire quadratic_surrogate)
      (Prng.key 0)
  with
  | _ -> Alcotest.fail "expected Guard.Diverged"
  | exception Guard.Diverged { step; anomalies; retries } ->
    Alcotest.(check int) "offending step" 6 step;
    Alcotest.(check int) "no retries under fail-fast" 0 retries;
    let names = List.map (fun a -> a.Guard.name) anomalies in
    Alcotest.(check bool) "objective named" true (List.mem "objective" names);
    Alcotest.(check bool) "parameter named" true (List.mem "x" names)

(* Skip_step *)

let test_skip_step_continues () =
  let store = quadratic_store () in
  let optim = Optim.adam ~lr:0.1 () in
  let guard = Guard.create ~policy:Guard.Skip_step () in
  let fired = ref false in
  let fire step =
    if step = 6 && not !fired then (fired := true; true) else false
  in
  let reports =
    Train.fit_surrogate ~store ~optim ~guard ~steps:40
      ~surrogate:(inject_nan ~fire quadratic_surrogate)
      (Prng.key 0)
  in
  Alcotest.(check int) "all steps reported" 40 (List.length reports);
  Alcotest.(check bool) "anomalies counted" true (Guard.anomaly_count guard >= 2);
  Alcotest.(check int) "one skipped step" 1 (Guard.skip_count guard);
  Alcotest.(check int) "grad skip counted by optimizer" 1 (Optim.skipped optim);
  let last = List.nth reports 39 in
  Alcotest.(check bool) "final objective finite" true
    (Float.is_finite last.Train.objective);
  check_close "still converges" ~tol:0.3 3. (scalar_of store "x")

(* Rollback_retry: the acceptance-criteria fault-injection scenario. *)

let rollback_run ?persist key =
  let store = quadratic_store () in
  let optim = Optim.adam ~lr:0.1 () in
  let guard =
    Guard.create ~policy:Guard.Rollback_retry ~snapshot_every:4 ~max_retries:3 ()
  in
  let fired = ref false in
  let fire step =
    if step = 6 && not !fired then (fired := true; true) else false
  in
  let reports =
    Train.fit_surrogate ~store ~optim ~guard ?persist ~steps:50
      ~surrogate:(inject_nan ~fire quadratic_surrogate)
      key
  in
  (store, guard, reports)

let test_rollback_retry_recovers () =
  let store, guard, reports = rollback_run (Prng.key 11) in
  Alcotest.(check int) "one rollback" 1 (Guard.retry_count guard);
  Alcotest.(check bool) "anomaly logged" true (Guard.anomaly_count guard >= 1);
  Alcotest.(check int) "all steps committed" 50 (List.length reports);
  List.iteri
    (fun i r ->
      Alcotest.(check int) "committed trajectory in order" i r.Train.step;
      if not (Float.is_finite r.Train.objective) then
        Alcotest.failf "non-finite committed objective at step %d" i)
    reports;
  let last = List.nth reports 49 in
  Alcotest.(check int) "report carries retry counter" 1 last.Train.retries;
  Alcotest.(check bool) "report carries anomaly counter" true
    (last.Train.anomalies >= 1);
  check_close "recovered and converged" ~tol:0.3 3. (scalar_of store "x")

let test_rollback_retry_reproducible () =
  let store1, _, reports1 = rollback_run (Prng.key 11) in
  let store2, _, reports2 = rollback_run (Prng.key 11) in
  Alcotest.(check bool) "same final parameters" true
    (Tensor.equal (Store.tensor store1 "x") (Store.tensor store2 "x"));
  List.iter2
    (fun a b ->
      if a.Train.objective <> b.Train.objective then
        Alcotest.failf "objectives differ at step %d" a.Train.step)
    reports1 reports2

(* With checkpointing on, the rollback at step 6 drains the write of
   step 5 and saves synchronously; the run's bits do not change, and
   the last checkpoint carries the rollback in its guard counters. *)
let test_rollback_with_checkpoints () =
  let dir = Filename.temp_file "ppvi_rollback" "" in
  Sys.remove dir;
  let persist = Persist.cfg ~every:5 dir in
  let store1, _, _ = rollback_run (Prng.key 11) in
  let store2, _, _ = rollback_run ~persist (Prng.key 11) in
  Alcotest.(check bool) "same final parameters" true
    (Tensor.equal (Store.tensor store1 "x") (Store.tensor store2 "x"));
  let guard = Guard.create () in
  match
    Persist.load_into persist ~store:(quadratic_store ())
      ~optim:(Optim.adam ~lr:0.1 ()) ~guard
  with
  | Some { Persist.step; _ } ->
    Alcotest.(check int) "last checkpoint at the end" 50 step;
    Alcotest.(check int) "rollback recorded" 1 (Guard.retry_count guard)
  | None -> Alcotest.fail "no checkpoint written"

let test_rollback_reseeds_deterministically () =
  (* A stochastic objective (REPARAM noise): after a rollback the
     replayed steps must draw fresh randomness — the objective series at
     the replayed steps differs from the first attempt — while the whole
     run stays a pure function of the initial key. *)
  let run () =
    let store = quadratic_store () in
    let optim = Optim.adam ~lr:0.1 () in
    let guard =
      Guard.create ~policy:Guard.Rollback_retry ~snapshot_every:4
        ~max_retries:3 ()
    in
    let fired = ref false in
    let first_attempt = ref [] in
    let objective frame step =
      let open Adev.Syntax in
      let* z =
        Adev.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 0.1))
      in
      let x = Store.Frame.get frame "x" in
      let v = Ad.neg Ad.O.((x + z - Ad.scalar 3.) * (x + z - Ad.scalar 3.)) in
      if step = 6 && not !fired then begin
        fired := true;
        Adev.return Ad.O.(Ad.scalar Float.nan * v)
      end
      else Adev.return v
    in
    let reports =
      Train.fit ~store ~optim ~guard ~steps:12
        ~on_step:(fun r ->
          if r.Train.retries = 0 then first_attempt := r :: !first_attempt)
        ~objective (Prng.key 23)
    in
    (store, guard, reports, List.rev !first_attempt)
  in
  let store1, guard1, reports1, first_attempt = run () in
  Alcotest.(check int) "rolled back once" 1 (Guard.retry_count guard1);
  (* Step 4 (the snapshot point) ran on both attempts; the committed
     value must come from the retry key, not the original. *)
  let original4 = (List.nth first_attempt 4).Train.objective in
  let committed4 = (List.nth reports1 4).Train.objective in
  Alcotest.(check bool) "replayed step resampled" true
    (original4 <> committed4);
  let store2, _, _, _ = run () in
  Alcotest.(check bool) "stochastic run reproducible" true
    (Tensor.equal (Store.tensor store1 "x") (Store.tensor store2 "x"))

let test_rollback_gives_up_after_max_retries () =
  let store = quadratic_store () in
  let optim = Optim.adam ~lr:0.1 () in
  let guard =
    Guard.create ~policy:Guard.Rollback_retry ~snapshot_every:4 ~max_retries:2 ()
  in
  let fire step = step = 6 (* persistent fault: fires on every attempt *) in
  match
    Train.fit_surrogate ~store ~optim ~guard ~steps:12
      ~surrogate:(inject_nan ~fire quadratic_surrogate)
      (Prng.key 0)
  with
  | _ -> Alcotest.fail "expected Guard.Diverged"
  | exception Guard.Diverged { step; retries; _ } ->
    Alcotest.(check int) "at the faulty step" 6 step;
    Alcotest.(check int) "budget exhausted" 2 retries

(* Store deep copy / restore *)

let test_store_copy_is_deep () =
  let store = Store.create () in
  Store.ensure store "w" (fun () -> Tensor.of_list1 [ 1.; 2.; 3. ]);
  let snapshot = Store.copy store in
  Alcotest.(check bool) "no shared tensor structure" true
    (Store.tensor snapshot "w" != Store.tensor store "w");
  (* Mutating the copy leaves the original intact... *)
  Store.set snapshot "w" (Tensor.of_list1 [ 9.; 9.; 9. ]);
  Alcotest.(check bool) "original intact" true
    (Tensor.equal (Store.tensor store "w") (Tensor.of_list1 [ 1.; 2.; 3. ]));
  (* ...and mutating the original leaves the copy intact. *)
  let snapshot2 = Store.copy store in
  Store.set store "w" (Tensor.of_list1 [ 7.; 7.; 7. ]);
  Alcotest.(check bool) "copy intact" true
    (Tensor.equal (Store.tensor snapshot2 "w") (Tensor.of_list1 [ 1.; 2.; 3. ]))

let test_store_restore () =
  let store = Store.create () in
  Store.ensure store "a" (fun () -> Tensor.scalar 1.);
  let snapshot = Store.copy store in
  Store.set store "a" (Tensor.scalar 42.);
  Store.ensure store "b" (fun () -> Tensor.scalar 5.);
  Store.restore store ~from:snapshot;
  check_close "rolled back" ~tol:0. 1. (scalar_of store "a");
  (* Names the snapshot lacks keep their current values. *)
  check_close "later registration preserved" ~tol:0. 5. (scalar_of store "b")

(* Store persistence *)

let test_store_save_load_roundtrip () =
  let store = Store.create () in
  Store.ensure store "weights" (fun () ->
      Tensor.of_array [| 2; 3 |]
        [| 1.5; -2.25; 1e-300; Float.max_float; -0.; 3.7 |]);
  Store.ensure store "bias" (fun () -> Tensor.scalar (-7.125));
  Store.ensure store "odd" (fun () ->
      Tensor.of_list1 [ Float.infinity; Float.neg_infinity; Float.nan ]);
  let path = Filename.temp_file "ppvi_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.save store path;
      let loaded = Store.load path in
      Alcotest.(check (list string))
        "registration order preserved" (Store.names store) (Store.names loaded);
      List.iter
        (fun name ->
          let a = Store.tensor store name and b = Store.tensor loaded name in
          Alcotest.(check (array int)) "shape" (Tensor.shape a) (Tensor.shape b);
          let xa = Tensor.to_array a and xb = Tensor.to_array b in
          Array.iteri
            (fun i x ->
              if Int64.bits_of_float x <> Int64.bits_of_float xb.(i) then
                Alcotest.failf "%s[%d] not bit-exact: %h vs %h" name i x xb.(i))
            xa)
        (Store.names store))

let test_store_load_rejects_garbage () =
  let path = Filename.temp_file "ppvi_garbage" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "definitely not a checkpoint";
      close_out oc;
      match Store.load path with
      | _ -> Alcotest.fail "expected Corrupt_checkpoint"
      | exception Store.Corrupt_checkpoint _ -> ())

(* Optimizer hygiene *)

let test_optim_reports_skips () =
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 1.);
  Store.ensure store "y" (fun () -> Tensor.scalar 1.);
  let opt = Optim.sgd ~lr:0.1 in
  let skipped = ref [] in
  Optim.step
    ~on_skip:(fun name _ -> skipped := name :: !skipped)
    opt Optim.Ascend store
    [ ("x", Tensor.scalar Float.nan); ("y", Tensor.scalar 2.) ];
  Alcotest.(check (list string)) "skip reported" [ "x" ] !skipped;
  Alcotest.(check int) "skip counted" 1 (Optim.skipped opt);
  check_close "x untouched" ~tol:0. 1. (scalar_of store "x");
  check_close "y updated" ~tol:1e-12 1.2 (scalar_of store "y")

let test_optim_clips_by_global_norm () =
  let store = Store.create () in
  Store.ensure store "a" (fun () -> Tensor.scalar 0.);
  Store.ensure store "b" (fun () -> Tensor.scalar 0.);
  let opt = Optim.sgd ~lr:1. in
  (* Joint gradient (3, 4) has global norm 5; clipped to 1 it becomes
     (0.6, 0.8). *)
  Optim.step ~clip_norm:1. opt Optim.Descend store
    [ ("a", Tensor.scalar 3.); ("b", Tensor.scalar 4.) ];
  check_close "a clipped" ~tol:1e-12 (-0.6) (scalar_of store "a");
  check_close "b clipped" ~tol:1e-12 (-0.8) (scalar_of store "b")

let test_optim_snapshot_restore () =
  let grad = Tensor.scalar 1.5 in
  let run_two_steps opt store =
    Optim.step opt Optim.Descend store [ ("x", grad) ];
    Optim.step opt Optim.Descend store [ ("x", grad) ]
  in
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 1.);
  let opt = Optim.adam ~lr:0.1 () in
  (* Warm up so the moments are nontrivial. *)
  Optim.step opt Optim.Descend store [ ("x", grad) ];
  let params = Store.copy store in
  let snap = Optim.snapshot opt in
  run_two_steps opt store;
  let first = scalar_of store "x" in
  Store.restore store ~from:params;
  Optim.restore opt snap;
  run_two_steps opt store;
  check_close "bit-identical replay" ~tol:0. first (scalar_of store "x")

(* Guarded loops leave clean runs bit-identical to the unguarded
   history: same updates, same PRNG stream. *)
let test_guard_default_transparent () =
  let run guard =
    let store = quadratic_store () in
    let optim = Optim.adam ~lr:0.1 () in
    let _ =
      Train.fit_surrogate ~store ~optim ?guard ~steps:25
        ~surrogate:quadratic_surrogate (Prng.key 3)
    in
    scalar_of store "x"
  in
  let implicit = run None in
  let explicit = run (Some (Guard.create ~policy:Guard.Rollback_retry ())) in
  Alcotest.(check bool) "clean run unaffected by policy" true
    (implicit = explicit)

let suites =
  [ ( "guard",
      [ Alcotest.test_case "scan classifies" `Quick test_scan_classifies;
        Alcotest.test_case "fail-fast surfaces Diverged" `Quick
          test_fail_fast_surfaces_diverged;
        Alcotest.test_case "skip-step continues" `Quick
          test_skip_step_continues;
        Alcotest.test_case "rollback-retry recovers" `Quick
          test_rollback_retry_recovers;
        Alcotest.test_case "rollback-retry reproducible" `Quick
          test_rollback_retry_reproducible;
        Alcotest.test_case "rollback with checkpoints" `Quick
          test_rollback_with_checkpoints;
        Alcotest.test_case "rollback reseeds deterministically" `Quick
          test_rollback_reseeds_deterministically;
        Alcotest.test_case "rollback gives up" `Quick
          test_rollback_gives_up_after_max_retries;
        Alcotest.test_case "store copy is deep" `Quick test_store_copy_is_deep;
        Alcotest.test_case "store restore" `Quick test_store_restore;
        Alcotest.test_case "save/load round-trip" `Quick
          test_store_save_load_roundtrip;
        Alcotest.test_case "load rejects garbage" `Quick
          test_store_load_rejects_garbage;
        Alcotest.test_case "optim reports skips" `Quick
          test_optim_reports_skips;
        Alcotest.test_case "optim clips global norm" `Quick
          test_optim_clips_by_global_norm;
        Alcotest.test_case "optim snapshot/restore" `Quick
          test_optim_snapshot_restore;
        Alcotest.test_case "guard transparent on clean runs" `Quick
          test_guard_default_transparent ] ) ]
