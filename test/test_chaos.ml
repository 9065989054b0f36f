(* Crash-recovery tests: a training run that is SIGKILLed mid-step at a
   fault-plan-chosen point and resumed from its rotated checkpoints
   must end with parameters bit-identical to an uninterrupted run.
   SIGKILL is uncatchable by design — recovery has to come from the
   durable state, not an exception handler. *)

let steps = 36
let every = 7

(* Child mode: earlier suites in this binary spawn domains, and OCaml
   forbids [Unix.fork] once they exist — so kill-cycle children are
   fresh re-executions of this test binary ([Unix.create_process] uses
   posix_spawn, not fork). The env marker short-circuits module
   initialization into one checkpointing training run, which the
   installed plan then SIGKILLs. *)
let () =
  match Sys.getenv_opt "PPVI_CHAOS_CHILD" with
  | None -> ()
  | Some spec ->
    let plan_seed = int_of_string (Sys.getenv "PPVI_CHAOS_PLAN_SEED") in
    let dir = Sys.getenv "PPVI_CHAOS_DIR" in
    (match Fault.plan_of_string ~seed:plan_seed spec with
    | Ok plan -> Fault.install plan
    | Error msg ->
      prerr_endline msg;
      Unix._exit 2);
    let cfg = Persist.cfg ~every dir in
    (try ignore (Coin.train ~steps ~samples:2 ~persist:cfg (Prng.key 0))
     with _ -> ());
    Unix._exit 0

(* A child trains for well under a second; one that is still running
   after this long is stuck, and is killed so the test fails instead
   of hanging the suite. *)
let child_time_limit_s = 120.

let wait_child pid =
  let deadline = Unix.gettimeofday () +. child_time_limit_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "chaos child still running after %.0f s; killed"
          child_time_limit_s
      end;
      Unix.sleepf 0.005;
      poll ()
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

let spawn_child ~dir ~plan_seed ~spec =
  flush stdout;
  flush stderr;
  let env =
    Array.append (Unix.environment ())
      [| "PPVI_CHAOS_CHILD=" ^ spec;
         "PPVI_CHAOS_PLAN_SEED=" ^ string_of_int plan_seed;
         "PPVI_CHAOS_DIR=" ^ dir |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  wait_child pid

let tmp_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppvi-test-chaos-%s-%d" tag (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  dir

let store_bits store =
  List.map
    (fun n ->
      (n, Array.map Int64.bits_of_float (Tensor.to_array (Store.tensor store n))))
    (Store.names store)

let train ?persist () =
  let store, _, _ = Coin.train ~steps ~samples:2 ?persist (Prng.key 0) in
  store_bits store

let check_bits msg a b =
  Alcotest.(check (list (pair string (array int64)))) msg a b

(* Stop-and-restart (no kill): running to step 14, then re-running the
   full command, must equal one uninterrupted run bit-for-bit. *)
let test_resume_equivalence_in_process () =
  let reference = train () in
  let dir = tmp_dir "resume" in
  let cfg = Persist.cfg ~every dir in
  let partial, _, _ = Coin.train ~steps:14 ~samples:2 ~persist:cfg (Prng.key 0) in
  ignore (store_bits partial);
  let resumed = train ~persist:cfg () in
  check_bits "resume = uninterrupted" reference resumed

(* Checkpointing itself must not perturb training. *)
let test_persist_is_transparent () =
  let reference = train () in
  let dir = tmp_dir "transparent" in
  let persisted = train ~persist:(Persist.cfg ~every dir) () in
  check_bits "persist = plain" reference persisted

(* The full chaos property: fork children that train under a fault plan
   whose seeded kill step SIGKILLs them mid-run; after the kill cycles,
   resume in-process (optionally past a corrupted newest checkpoint)
   and compare against the uninterrupted reference. *)
let run_kill_cycles ~dir ~cycles =
  let cfg = Persist.cfg ~every dir in
  let killed = ref 0 in
  for cycle = 1 to cycles do
    let spec = Printf.sprintf "kill-in=1..%d" (steps - 1) in
    match spawn_child ~dir ~plan_seed:(41 * cycle) ~spec with
    | Unix.WSIGNALED s when s = Sys.sigkill -> incr killed
    | Unix.WEXITED 0 -> () (* resumed past its kill step and finished *)
    | _ -> Alcotest.fail "child neither killed nor cleanly exited"
  done;
  (cfg, !killed)

let test_sigkill_resume_bit_identical () =
  let reference = train () in
  let dir = tmp_dir "sigkill" in
  let cfg, killed = run_kill_cycles ~dir ~cycles:3 in
  (* A fresh run is always behind cycle 1's kill step, so at least one
     child must actually have died by SIGKILL for the test to mean
     anything. *)
  Alcotest.(check bool) "at least one SIGKILL landed" true (killed >= 1);
  let final = train ~persist:cfg () in
  check_bits "SIGKILL + resume = uninterrupted" reference final

let test_sigkill_resume_past_corruption () =
  let reference = train () in
  let dir = tmp_dir "corrupt" in
  let cfg, _ = run_kill_cycles ~dir ~cycles:2 in
  (* Truncate the newest checkpoint: the resume must detect the damage
     and fall back to an older one, then still converge bit-exactly. *)
  let newest =
    Array.to_list (Sys.readdir dir)
    |> List.filter_map (fun f ->
           if String.length f > 5 && String.sub f 0 5 = "ckpt." then
             Option.map
               (fun i -> (i, Filename.concat dir f))
               (int_of_string_opt (String.sub f 5 (String.length f - 5)))
           else None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  (match newest with
  | (_, path) :: _ ->
    let len = (Unix.stat path).Unix.st_size in
    Unix.truncate path (len / 2)
  | [] -> Alcotest.fail "kill cycles left no checkpoints");
  let final = train ~persist:cfg () in
  check_bits "resume past corruption = uninterrupted" reference final

(* --- The background writer's contract --- *)

let files dir = List.sort compare (Array.to_list (Sys.readdir dir))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_plan ~seed spec f =
  (match Fault.plan_of_string ~seed spec with
  | Ok plan -> Fault.install plan
  | Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:Fault.clear f

(* When [fit] returns, its last checkpoint is already durable. *)
let test_final_checkpoint_durable () =
  let dir = tmp_dir "final" in
  let cfg = Persist.cfg ~every:6 dir in
  ignore (Coin.train ~steps ~samples:2 ~persist:cfg (Prng.key 0));
  let optim = Optim.adam ~lr:0.02 () in
  match Persist.load_into cfg ~store:(Store.create ()) ~optim ~guard:(Guard.create ()) with
  | Some { Persist.step; _ } -> Alcotest.(check int) "step of the newest checkpoint" steps step
  | None -> Alcotest.fail "no checkpoint after fit returned"

(* A write that fails past its retry budget makes [fit] raise — at the
   next save, or at return when it was the last — and leaves no temp
   file behind. *)
let test_write_error_surfaces () =
  List.iter
    (fun (tag, steps) ->
      let dir = tmp_dir tag in
      let cfg = Persist.cfg ~every ~retries:1 ~backoff_ms:0.01 dir in
      let raised =
        with_plan ~seed:5 "io-error=1" (fun () ->
            match Coin.train ~steps ~samples:2 ~persist:cfg (Prng.key 0) with
            | _ -> false
            | exception Sys_error _ -> true)
      in
      Alcotest.(check bool) (tag ^ ": fit raised Sys_error") true raised;
      Alcotest.(check (list string)) (tag ^ ": no file left behind") [] (files dir))
    [ ("fail-mid", steps); ("fail-last", every) ]

(* Under a seeded plan of I/O errors and short writes, the writer
   thread sees the same I/O sequence every run: equal injection
   tallies, equal retry counts, byte-identical checkpoints and
   parameters. *)
let test_io_faults_deterministic () =
  let run tag =
    let dir = tmp_dir tag in
    let cfg = Persist.cfg ~every ~retries:6 ~backoff_ms:0.01 dir in
    Obs.configure ~enabled:true ~sink:`Null ();
    Obs.reset ();
    Fun.protect
      ~finally:(fun () -> Obs.configure ~enabled:false ~sink:`Console ())
      (fun () ->
        with_plan ~seed:3 "io-error=0.3 short-write=0.3" (fun () ->
            let params = train ~persist:cfg () in
            let ckpts = List.map (fun f -> (f, read_file (Filename.concat dir f))) (files dir) in
            (Fault.injected (), Obs.counter_value "store/io_retries", ckpts, params)))
  in
  let injected_a, retries_a, ckpts_a, params_a = run "io-a" in
  let injected_b, retries_b, ckpts_b, params_b = run "io-b" in
  Alcotest.(check bool) "the plan injected faults" true (retries_a > 0);
  Alcotest.(check (list (pair string int))) "injection tallies" injected_a injected_b;
  Alcotest.(check int) "store/io_retries" retries_a retries_b;
  Alcotest.(check (list (pair string string))) "checkpoint bytes" ckpts_a ckpts_b;
  check_bits "parameters" params_a params_b;
  check_bits "parameters = no faults" (train ()) params_a

let suites =
  [ ( "chaos",
      [ Alcotest.test_case "resume equivalence" `Quick
          test_resume_equivalence_in_process;
        Alcotest.test_case "persist transparent" `Quick
          test_persist_is_transparent;
        Alcotest.test_case "sigkill resume bit-identical" `Quick
          test_sigkill_resume_bit_identical;
        Alcotest.test_case "sigkill resume past corruption" `Quick
          test_sigkill_resume_past_corruption;
        Alcotest.test_case "final checkpoint durable at return" `Quick
          test_final_checkpoint_durable;
        Alcotest.test_case "write error surfaces" `Quick
          test_write_error_surfaces;
        Alcotest.test_case "io faults deterministic" `Quick
          test_io_faults_deterministic ] ) ]
