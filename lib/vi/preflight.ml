(* The pre-flight target registry: every shipped case study (and a
   mirror of each example program) as a [Check.target], plus a family of
   deliberately broken demonstration programs whose expected diagnostic
   codes are recorded alongside. [ppvi check] and the CI lint job run
   the whole registry: clean targets must produce no error-severity
   diagnostics, demo targets must produce their expected codes. *)

open Gen.Syntax

type entry = {
  name : string;
  expect : string list;
      (* Diagnostic codes this target is expected to produce; empty for
         targets that must analyze clean. *)
  make : unit -> Check.target;
}

let pair model guide = Check.Pair { model; guide }

(* ------------------------------------------------------------------ *)
(* Deliberately broken demonstration programs                          *)

let demo_branchy_reparam () =
  let prog =
    let* x = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "x" in
    if Gen.rigid x > 0. then
      let* _ =
        Gen.sample (Dist.normal_reinforce (Ad.scalar 1.) (Ad.scalar 1.)) "pos"
      in
      Gen.return ()
    else Gen.return ()
  in
  Check.Program (Gen.Packed prog)

let demo_enum_on_continuous () =
  let d = Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.) in
  let d = { d with Dist.strategy = Dist.Enum } in
  Check.Program (Gen.Packed (Gen.sample d "z"))

let demo_mvd_uncoupled () =
  let d = Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.) in
  let d = { d with Dist.strategy = Dist.Mvd } in
  Check.Program (Gen.Packed (Gen.sample d "z"))

let demo_guide_mismatch () =
  let model =
    let* mu = Gen.sample (Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.)) "mu" in
    Gen.observe (Dist.normal_reparam mu (Ad.scalar 1.)) (Ad.scalar 0.5)
  in
  let guide =
    let* _ =
      Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "sigma"
    in
    Gen.return ()
  in
  pair (Gen.Packed model) (Gen.Packed guide)

let demo_duplicate_address () =
  let prog =
    let* _ = Gen.sample (Dist.flip_enum (Ad.scalar 0.4)) "coin" in
    let* _ = Gen.sample (Dist.flip_enum (Ad.scalar 0.6)) "coin" in
    Gen.return ()
  in
  Check.Program (Gen.Packed prog)

let demo_observe_outside_support () =
  let prog =
    let* _ = Gen.sample (Dist.flip_enum (Ad.scalar 0.5)) "b" in
    Gen.observe (Dist.uniform 0. 1.) (Ad.scalar 2.)
  in
  Check.Program (Gen.Packed prog)

(* A plate whose body shape depends on the instance index: the batched
   lowering cannot stack the rows, so every run silently takes the
   sequential path (PV210). *)
let demo_plate_shape () =
  let prog =
    Gen.plate ~n:8 (fun i ->
        let dim = if i = 0 then 2 else 3 in
        Gen.sample
          (Dist.mv_normal_diag_reparam
             (Ad.const (Tensor.zeros [| dim |]))
             (Ad.const (Tensor.ones [| dim |])))
          "z")
  in
  Check.Program (Gen.Packed prog)

(* A plate body reusing an address bound outside the plate: under the
   batched lowering the stacked value would collide with the enclosing
   site (PV211). *)
let demo_plate_escape () =
  let prog =
    let* _ = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "z" in
    let* _ =
      Gen.plate ~n:4 (fun _ ->
          Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "z")
    in
    Gen.return ()
  in
  Check.Program (Gen.Packed prog)

(* Model and guide bind different concrete shapes at the shared latent:
   the model's density of a guide trace reads a 3-vector through a
   2-dimensional primitive (PV601). *)
let demo_shape_mismatch () =
  let mv dim =
    Dist.mv_normal_diag_reparam
      (Ad.const (Tensor.zeros [| dim |]))
      (Ad.const (Tensor.ones [| dim |]))
  in
  let model =
    let* _ = Gen.sample (mv 2) "z" in
    Gen.return ()
  in
  let guide =
    let* _ = Gen.sample (mv 3) "z" in
    Gen.return ()
  in
  pair (Gen.Packed model) (Gen.Packed guide)

(* A two-sided broadcast at an observation: logits [6,1] against a
   value [1,5] scores a 6x5 cross-product instead of elementwise — the
   runtime broadcasts without complaint, so only the static shape pass
   catches it (PV602). *)
let demo_ambiguous_broadcast () =
  let prog =
    Gen.observe
      (Dist.bernoulli_logits_vector (Ad.const (Tensor.zeros [| 6; 1 |])))
      (Ad.const (Tensor.zeros [| 1; 5 |]))
  in
  Check.Program (Gen.Packed prog)

(* A plate whose per-instance shape has leading extent equal to the
   plate count: the stacked [3,3] value's instance axis is
   indistinguishable from the instance's own axis (PV603). *)
let demo_plate_rank () =
  let prog =
    Gen.plate ~n:3 (fun _ ->
        Gen.sample
          (Dist.mv_normal_diag_reparam
             (Ad.const (Tensor.zeros [| 3 |]))
             (Ad.const (Tensor.ones [| 3 |])))
          "w")
  in
  Check.Program (Gen.Packed prog)

(* Model and guide disagree on the iid batch count at the shared
   address: a symbolic-dimension binding conflict (PV604). *)
let demo_plate_count () =
  let mv1 =
    Dist.mv_normal_diag_reparam
      (Ad.const (Tensor.zeros [| 1 |]))
      (Ad.const (Tensor.ones [| 1 |]))
  in
  let model =
    let* _ = Gen.sample (Dist.iid 8 mv1) "z" in
    Gen.return ()
  in
  let guide =
    let* _ = Gen.sample (Dist.iid 4 mv1) "z" in
    Gen.return ()
  in
  pair (Gen.Packed model) (Gen.Packed guide)

(* ------------------------------------------------------------------ *)
(* Example-program mirrors                                             *)

let quickstart_target () =
  let model =
    let* x = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 3.)) "x" in
    let* y = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 3.)) "y" in
    let r2 = Ad.add (Ad.mul x x) (Ad.mul y y) in
    Gen.observe (Dist.normal_reparam r2 (Ad.scalar 0.5)) (Ad.scalar 5.)
  in
  let guide =
    let std rho = Ad.add_scalar 1e-3 (Ad.softplus rho) in
    let* _ =
      Gen.sample (Dist.normal_reparam (Ad.scalar 0.5) (std (Ad.scalar 0.5))) "x"
    in
    let* _ =
      Gen.sample (Dist.normal_reparam (Ad.scalar 0.5) (std (Ad.scalar 0.5))) "y"
    in
    Gen.return ()
  in
  pair (Gen.Packed model) (Gen.Packed guide)

(* The custom-primitive example, with the optional [?meta] static
   metadata a user can attach so the analyzer knows the support. *)
let custom_primitive_target () =
  let exponential_reparam rate =
    Dist.make ~name:"exponential" ~strategy:Dist.Reparam
      ~sample:(fun key ->
        Ad.scalar (Prng.exponential key /. Tensor.to_scalar (Ad.value rate)))
      ~log_density:(fun x -> Ad.O.(Ad.log rate - (rate * x)))
      ~default:(Ad.scalar 1.)
      ~inject:(fun a -> Value.Real a)
      ~project:(function Value.Real a -> Some a | _ -> None)
      ~reparam:(fun key ->
        let e = Prng.exponential key in
        Ad.div (Ad.scalar e) rate)
      ~meta:Dist.nonneg_reals ()
  in
  let model =
    let* x = Gen.sample (exponential_reparam (Ad.scalar 1.)) "x" in
    Gen.observe (Dist.normal_reparam x (Ad.scalar 0.5)) (Ad.scalar 2.)
  in
  let guide = Gen.map (fun _ -> ()) (Gen.sample (exponential_reparam (Ad.scalar 1.2)) "x") in
  pair (Gen.Packed model) (Gen.Packed guide)

(* ------------------------------------------------------------------ *)
(* Case studies                                                        *)

let cone_frame () =
  let store = Store.create () in
  Cone.register store (Prng.key 0);
  Store.Frame.make store

let entries =
  [ { name = "cone/elbo";
      expect = [];
      make =
        (fun () ->
          pair (Gen.Packed Cone.model) (Gen.Packed (Cone.guide_naive (cone_frame ())))) };
    { name = "cone/hvi";
      expect = [];
      make =
        (fun () ->
          pair (Gen.Packed Cone.model)
            (Gen.Packed (Cone.guide_marginal ~aux_particles:2 (cone_frame ())))) };
    { name = "cone/sir";
      expect = [];
      make =
        (fun () ->
          pair (Gen.Packed Cone.model)
            (Gen.Packed (Cone.guide_sir ~particles:2 (cone_frame ())))) };
    { name = "cone/learned-reverse";
      expect = [];
      make =
        (fun () ->
          let frame = cone_frame () in
          let guide =
            Gen.marginal ~keep:[ "x"; "y" ] (Cone.guide_joint frame)
              (Gen.importance ~particles:2 (Cone.reverse_kernel_learned frame))
          in
          pair (Gen.Packed Cone.model) (Gen.Packed guide)) };
    { name = "coin";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Coin.register store;
          let frame = Store.Frame.make store in
          pair (Gen.Packed Coin.model) (Gen.Packed (Coin.guide frame))) };
    { name = "regression";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Regression.register store;
          let frame = Store.Frame.make store in
          pair (Gen.Packed Regression.model) (Gen.Packed (Regression.guide frame))) };
    { name = "mcvi";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Mcvi.register store;
          let frame = Store.Frame.make store in
          pair (Gen.Packed Cone.model)
            (Gen.Packed (Mcvi.guide ~aux_particles:2 frame))) };
    { name = "vae";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Vae.register store (Prng.key 11);
          let frame = Store.Frame.make store in
          let images, _ = Data.digit_batch (Prng.key 12) 2 in
          pair
            (Gen.Packed (Vae.model frame images))
            (Gen.Packed (Vae.guide frame images))) };
    { name = "ssvae/unsup";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Ssvae.register store (Prng.key 21);
          let frame = Store.Frame.make store in
          let images, _ = Data.digit_batch (Prng.key 22) 1 in
          let image = Tensor.slice0 images 0 in
          pair
            (Gen.Packed (Ssvae.unsup_model frame image))
            (Gen.Packed (Ssvae.unsup_guide frame image))) };
    { name = "ssvae/sup";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Ssvae.register store (Prng.key 23);
          let frame = Store.Frame.make store in
          let images, _ = Data.digit_batch (Prng.key 24) 1 in
          let image = Tensor.slice0 images 0 in
          pair
            (Gen.Packed (Ssvae.sup_model frame 3 image))
            (Gen.Packed (Ssvae.sup_guide frame 3 image))) };
    { name = "cvae";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Cvae.register store (Prng.key 31);
          let frame = Store.Frame.make store in
          let images, _ = Data.digit_batch (Prng.key 32) 1 in
          let image = Tensor.slice0 images 0 in
          let input = Tensor.flatten (Data.quadrant image Cvae.observed_quadrant) in
          let target = Data.without_quadrant image Cvae.observed_quadrant in
          pair
            (Gen.Packed (Cvae.model frame input target))
            (Gen.Packed (Cvae.guide frame input target))) };
    { name = "air";
      expect = [];
      make =
        (fun () ->
          let store = Store.create () in
          Air.register store (Prng.key 41);
          let frame = Store.Frame.make store in
          let baselines = Air.make_baselines () in
          let image, _ = Data.air_scene (Prng.key 42) in
          pair
            (Gen.Packed (Air.model frame image))
            (Gen.Packed (Air.guide ~baselines frame image))) };
    { name = "examples/quickstart"; expect = []; make = quickstart_target };
    { name = "examples/custom-primitive";
      expect = [];
      make = custom_primitive_target };
    { name = "demo/branchy-reparam";
      expect = [ "PV101" ];
      make = demo_branchy_reparam };
    { name = "demo/enum-on-continuous";
      expect = [ "PV102" ];
      make = demo_enum_on_continuous };
    { name = "demo/mvd-uncoupled"; expect = [ "PV103" ]; make = demo_mvd_uncoupled };
    { name = "demo/guide-mismatch";
      expect = [ "PV202"; "PV203" ];
      make = demo_guide_mismatch };
    { name = "demo/duplicate-address";
      expect = [ "PV201" ];
      make = demo_duplicate_address };
    { name = "demo/observe-outside-support";
      expect = [ "PV301" ];
      make = demo_observe_outside_support };
    { name = "demo/plate-shape"; expect = [ "PV210" ]; make = demo_plate_shape };
    { name = "demo/plate-escape";
      expect = [ "PV211" ];
      make = demo_plate_escape };
    { name = "demo/pv601-shape-mismatch";
      expect = [ "PV601" ];
      make = demo_shape_mismatch };
    { name = "demo/pv602-ambiguous-broadcast";
      expect = [ "PV602" ];
      make = demo_ambiguous_broadcast };
    { name = "demo/pv603-plate-rank";
      expect = [ "PV603" ];
      make = demo_plate_rank };
    { name = "demo/pv604-plate-count";
      expect = [ "PV604" ];
      make = demo_plate_count } ]

(* ------------------------------------------------------------------ *)
(* Running the registry                                                *)

(* Compileability findings, folded into the same report: stage each of
   the target's programs through [Compile.compile] (uncached, so
   frame-specific registry programs never pollute the plan cache) and
   report refusals as info-severity PV501 diagnostics. One [ppvi
   check] run thus surfaces strategy, address, shape, and
   compileability findings together. Info severity is deliberate —
   every program runs on the interpreter, so a refusal changes nothing
   at runtime. *)
let compile_refusals ?fuel ?max_width name target =
  let programs =
    match target with
    | Check.Program p -> [ (name, p) ]
    | Check.Pair { model; guide } ->
      [ (name ^ "/model", model); (name ^ "/guide", guide) ]
  in
  List.filter_map
    (fun (id, p) ->
      match Compile.compile ?fuel ?max_width ~id p with
      | Compile.Compiled _ -> None
      | Compile.Refused r ->
        Some
          { Check.code = r.Compile.r_code;
            severity = Check.Info;
            address = r.Compile.r_address;
            message =
              Printf.sprintf "%s does not stage: %s" id r.Compile.r_reason }
      | exception exn ->
        Some
          { Check.code = "PV501";
            severity = Check.Info;
            address = None;
            message =
              Printf.sprintf "%s: staging attempt failed: %s" id
                (Printexc.to_string exn) })
    programs

let run ?fuel ?max_width entry =
  match entry.make () with
  | target ->
    let report = Check.analyze ?fuel ?max_width target in
    let refusals = compile_refusals ?fuel ?max_width entry.name target in
    { report with Check.diagnostics = report.Check.diagnostics @ refusals }
  | exception exn ->
    { Check.diagnostics =
        [ { Check.code = "PV390";
            severity = Check.Warning;
            address = None;
            message = "target construction failed: " ^ Printexc.to_string exn } ];
      truncated = false }

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let run_all ?fuel ?max_width ?(filter = "") () =
  let selected = List.filter (fun e -> contains_substring e.name filter) entries in
  List.map (fun e -> (e, run ?fuel ?max_width e)) selected

(* A clean target passes when it has no error-severity diagnostics; a
   demo target passes when every expected code shows up. *)
let entry_ok entry report =
  match entry.expect with
  | [] -> not (Check.has_errors report)
  | expected ->
    List.for_all
      (fun code ->
        List.exists (fun d -> d.Check.code = code) report.Check.diagnostics)
      expected

let all_ok results = List.for_all (fun (e, r) -> entry_ok e r) results

let results_to_json results =
  "["
  ^ String.concat ","
      (List.map (fun (e, r) -> Check.report_to_json ~name:e.name r) results)
  ^ "]"

let print_human ppf results =
  List.iter
    (fun (e, r) ->
      let status =
        if entry_ok e r then "ok"
        else if e.expect = [] then "FAIL"
        else "MISSING-EXPECTED"
      in
      Format.fprintf ppf "%-32s %s@." e.name status;
      List.iter
        (fun d -> Format.fprintf ppf "    %a@." Check.pp_diagnostic d)
        r.Check.diagnostics;
      if r.Check.truncated then
        Format.fprintf ppf "    (exploration truncated)@.")
    results
