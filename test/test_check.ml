(* Tests for the pre-flight static analyzer: one test per diagnostic
   code family, the enriched runtime errors the analyzer piggy-backs on,
   the JSON encoding, and a consistency property tying the analyzer's
   verdict to concrete seeded runs. *)

open Gen.Syntax

let k0 = Prng.key 7

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let std_normal_reparam () =
  Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)

let std_normal_reinforce () =
  Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.)

let analyze_prog prog = Check.analyze (Check.Program (Gen.Packed prog))

let codes report = List.map (fun d -> d.Check.code) report.Check.diagnostics

let has_code code report = List.mem code (codes report)

let find_code code report =
  List.find (fun d -> d.Check.code = code) report.Check.diagnostics

let check_has code report =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got: %s)" code
       (String.concat "," (codes report)))
    true (has_code code report)

(* --- strategy validity ------------------------------------------------ *)

let branchy_reparam =
  let* x = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "x" in
  if Gen.rigid x > 0. then
    let* _ = Gen.sample (Dist.normal_reinforce (Ad.scalar 1.) (Ad.scalar 1.)) "pos" in
    Gen.return ()
  else Gen.return ()

let test_pv101_branchy_reparam () =
  let r = analyze_prog branchy_reparam in
  check_has "PV101" r;
  let d = find_code "PV101" r in
  Alcotest.(check (option string)) "attributed to x" (Some "x") d.Check.address;
  Alcotest.(check bool) "error severity" true (d.Check.severity = Check.Error)

let test_pv101_absent_on_reinforce () =
  let prog =
    let* x = Gen.sample (std_normal_reinforce ()) "x" in
    if Gen.rigid x > 0. then
      let* _ = Gen.sample (std_normal_reinforce ()) "pos" in
      Gen.return ()
    else Gen.return ()
  in
  let r = analyze_prog prog in
  Alcotest.(check bool)
    (Printf.sprintf "branchy REINFORCE clean (got: %s)"
       (String.concat "," (codes r)))
    false (Check.has_errors r)

let test_pv102_enum_on_continuous () =
  let d = { (std_normal_reinforce ()) with Dist.strategy = Dist.Enum } in
  check_has "PV102" (analyze_prog (Gen.sample d "z"))

let test_pv103_mvd_uncoupled () =
  let d = { (std_normal_reinforce ()) with Dist.strategy = Dist.Mvd } in
  check_has "PV103" (analyze_prog (Gen.sample d "z"))

let test_pv104_reparam_without_sampler () =
  let d = { (std_normal_reinforce ()) with Dist.strategy = Dist.Reparam } in
  check_has "PV104" (analyze_prog (Gen.sample d "z"))

(* --- address discipline ----------------------------------------------- *)

let test_pv201_duplicate_address () =
  let prog =
    let* _ = Gen.sample (Dist.flip_enum (Ad.scalar 0.4)) "coin" in
    let* _ = Gen.sample (Dist.flip_enum (Ad.scalar 0.6)) "coin" in
    Gen.return ()
  in
  let r = analyze_prog prog in
  check_has "PV201" r;
  Alcotest.(check (option string)) "attributed" (Some "coin")
    (find_code "PV201" r).Check.address

let test_pv201_only_on_shared_path () =
  (* Same address on mutually exclusive branches is legal. *)
  let prog =
    let* b = Gen.sample (Dist.flip_enum (Ad.scalar 0.5)) "b" in
    if b then
      let* _ = Gen.sample (std_normal_reinforce ()) "x" in
      Gen.return ()
    else
      let* _ = Gen.sample (std_normal_reinforce ()) "x" in
      Gen.return ()
  in
  Alcotest.(check bool) "branch-local reuse clean" false
    (Check.has_errors (analyze_prog prog))

let mismatch_pair () =
  let model =
    let* mu = Gen.sample (std_normal_reinforce ()) "mu" in
    Gen.observe (Dist.normal_reparam mu (Ad.scalar 1.)) (Ad.scalar 0.5)
  in
  let guide =
    let* _ = Gen.sample (std_normal_reparam ()) "sigma" in
    Gen.return ()
  in
  Check.Pair { model = Gen.Packed model; guide = Gen.Packed guide }

let test_pv202_pv203_pair_mismatch () =
  let r = Check.analyze (mismatch_pair ()) in
  check_has "PV202" r;
  check_has "PV203" r

let test_pv204_carrier_mismatch () =
  let model =
    let* _ = Gen.sample (Dist.flip_reinforce (Ad.scalar 0.5)) "a" in
    Gen.return ()
  in
  let guide =
    let* _ = Gen.sample (std_normal_reparam ()) "a" in
    Gen.return ()
  in
  check_has "PV204"
    (Check.analyze (Check.Pair { model = Gen.Packed model; guide = Gen.Packed guide }))

let test_pv208_support_warning () =
  let model =
    let* _ = Gen.sample (Dist.uniform 0. 1.) "u" in
    Gen.return ()
  in
  let guide =
    let* _ = Gen.sample (std_normal_reparam ()) "u" in
    Gen.return ()
  in
  let r =
    Check.analyze (Check.Pair { model = Gen.Packed model; guide = Gen.Packed guide })
  in
  check_has "PV208" r;
  Alcotest.(check bool) "PV208 is a warning, not an error" false
    (Check.has_errors r)

(* --- values and shapes ------------------------------------------------ *)

let test_pv301_observe_outside_support () =
  let prog = Gen.observe (Dist.uniform 0. 1.) (Ad.scalar 2.) in
  check_has "PV301" (analyze_prog prog)

let test_pv302_observe_nan () =
  let prog =
    Gen.observe (std_normal_reparam ()) (Ad.scalar Float.nan)
  in
  check_has "PV302" (analyze_prog prog)

let test_clean_program_no_diagnostics () =
  let prog =
    let* x = Gen.sample (std_normal_reparam ()) "x" in
    Gen.observe (Dist.normal_reparam x (Ad.scalar 1.)) (Ad.scalar 0.5)
  in
  let r = analyze_prog prog in
  Alcotest.(check (list string)) "no diagnostics" [] (codes r)

(* --- enriched runtime errors ------------------------------------------ *)

let test_smoothness_error_attribution () =
  (* The runtime error the analyzer piggy-backs on carries the sampling
     address and gradient strategy of the offending value — taped, and
     inside the tape-free scope alike. *)
  let run () = Adev.run (Gen.simulate branchy_reparam) k0 (fun (_, _, w) -> w) in
  List.iter
    (fun (scope, run) ->
      match run () with
      | (_ : Ad.t) -> Alcotest.failf "%s: expected Smoothness_error" scope
      | exception Value.Smoothness_error info ->
        Alcotest.(check (option string)) (scope ^ " address") (Some "x")
          info.Value.address;
        Alcotest.(check (option string)) (scope ^ " strategy")
          (Some "REPARAM") info.Value.strategy;
        let msg = Value.smoothness_message info in
        Alcotest.(check bool) (scope ^ " message mentions address") true
          (contains msg {|"x"|}))
    [ ("taped", run); ("primal", fun () -> Ad.primal run) ]

let test_duplicate_address_payload () =
  let prog =
    let* _ = Gen.sample (std_normal_reinforce ()) "site" in
    let* _ = Gen.sample (std_normal_reinforce ()) "site" in
    Gen.return ()
  in
  match Adev.run (Gen.simulate prog) k0 (fun (_, _, w) -> w) with
  | (_ : Ad.t) -> Alcotest.fail "expected Duplicate_address"
  | exception Trace.Duplicate_address a ->
    Alcotest.(check string) "address payload" "site" a

(* --- JSON ------------------------------------------------------------- *)

let test_json_encoding () =
  let r = analyze_prog branchy_reparam in
  let json = Check.report_to_json ~name:"unit \"test\"" r in
  Alcotest.(check bool) "name escaped" true
    (contains json {|"name":"unit \"test\""|});
  Alcotest.(check bool) "code present" true
    (contains json {|"code":"PV101"|});
  Alcotest.(check bool) "severity present" true
    (contains json {|"severity":"error"|})

(* --- analyzer/runtime consistency property ---------------------------- *)

(* Programs are generated as site-list sketches and compiled to [Gen.t].
   Small address pool, so duplicates arise; branch kinds exercise the
   rigid guard under both strategies. *)
type site_kind =
  | S_reparam
  | S_reinforce
  | S_flip
  | S_branch_reparam
  | S_branch_reinforce

let compile_sketch sites =
  let rec go = function
    | [] -> Gen.return ()
    | (name, kind) :: rest -> (
      match kind with
      | S_flip ->
        let* _ = Gen.sample (Dist.flip_reinforce (Ad.scalar 0.5)) name in
        go rest
      | S_reparam ->
        let* _ = Gen.sample (std_normal_reparam ()) name in
        go rest
      | S_reinforce ->
        let* _ = Gen.sample (std_normal_reinforce ()) name in
        go rest
      | S_branch_reparam ->
        let* x = Gen.sample (std_normal_reparam ()) name in
        if Gen.rigid x > 0. then go rest else go rest
      | S_branch_reinforce ->
        let* x = Gen.sample (std_normal_reinforce ()) name in
        if Gen.rigid x > 0. then go rest else go rest)
  in
  go sites

let sketch_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 4)
      (pair
         (oneofl [ "a"; "b"; "c" ])
         (oneofl
            [ S_reparam; S_reinforce; S_flip; S_branch_reparam;
              S_branch_reinforce ])))

let prop_analyzer_consistent =
  QCheck.Test.make ~name:"analyzer verdict matches concrete runs" ~count:60
    sketch_gen (fun sites ->
      let prog = compile_sketch sites in
      let report = analyze_prog prog in
      let flagged =
        List.exists
          (fun d -> d.Check.code = "PV101" || d.Check.code = "PV201")
          (Check.errors report)
      in
      let run_ok seed =
        match
          Adev.run (Gen.simulate prog) (Prng.key seed) (fun (_, _, w) -> w)
        with
        | (_ : Ad.t) -> true
        | exception Value.Smoothness_error _ -> false
        | exception Trace.Duplicate_address _ -> false
      in
      let seeds = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
      if flagged then
        (* An analyzer error must be witnessed by some concrete run. *)
        List.exists (fun s -> not (run_ok s)) seeds
      else
        (* Analyzer-clean programs never raise, whatever the seed. *)
        List.for_all run_ok seeds)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_analyzer_consistent ]

let suites =
  [ ( "check",
      [ Alcotest.test_case "PV101 branchy reparam" `Quick
          test_pv101_branchy_reparam;
        Alcotest.test_case "PV101 absent on reinforce" `Quick
          test_pv101_absent_on_reinforce;
        Alcotest.test_case "PV102 enum on continuous" `Quick
          test_pv102_enum_on_continuous;
        Alcotest.test_case "PV103 mvd uncoupled" `Quick
          test_pv103_mvd_uncoupled;
        Alcotest.test_case "PV104 reparam without sampler" `Quick
          test_pv104_reparam_without_sampler;
        Alcotest.test_case "PV201 duplicate address" `Quick
          test_pv201_duplicate_address;
        Alcotest.test_case "PV201 branch-local reuse ok" `Quick
          test_pv201_only_on_shared_path;
        Alcotest.test_case "PV202/PV203 pair mismatch" `Quick
          test_pv202_pv203_pair_mismatch;
        Alcotest.test_case "PV204 carrier mismatch" `Quick
          test_pv204_carrier_mismatch;
        Alcotest.test_case "PV208 support warning" `Quick
          test_pv208_support_warning;
        Alcotest.test_case "PV301 observe outside support" `Quick
          test_pv301_observe_outside_support;
        Alcotest.test_case "PV302 observe NaN" `Quick test_pv302_observe_nan;
        Alcotest.test_case "clean program" `Quick
          test_clean_program_no_diagnostics;
        Alcotest.test_case "smoothness error attribution" `Quick
          test_smoothness_error_attribution;
        Alcotest.test_case "duplicate address payload" `Quick
          test_duplicate_address_payload;
        Alcotest.test_case "json encoding" `Quick test_json_encoding ]
      @ qcheck_cases ) ]
