(* Decisions are pure functions of (plan seed, category, occurrence
   index): category [cat]'s [n]-th consultation draws
   [Prng.uniform (fold_in (fold_in base cat) n)] and compares against
   the plan's probability. Step-indexed faults (oom, delay, kill) use
   the step number itself as the index, so they are replayable even
   when a crash-and-resume run consults them a different number of
   times than an uninterrupted run. *)

type spec = {
  io_error : float;
  short_write : float;
  grad_nan : float;
  grad_inf : float;
  oom : float;
  delay_p : float;
  delay_ms : float;
  kill : [ `Never | `At of int | `In of int * int ];
}

let empty_spec =
  {
    io_error = 0.;
    short_write = 0.;
    grad_nan = 0.;
    grad_inf = 0.;
    oom = 0.;
    delay_p = 0.;
    delay_ms = 0.;
    kill = `Never;
  }

type plan = {
  p_seed : int;
  p_text : string;
  p_spec : spec;
  p_base : Prng.key;
  p_kill_step : int option;
  counts : int array;  (* occurrence counters, by category index *)
  tally : (string, int ref) Hashtbl.t;
}

(* Category indices keying the per-category decision streams. *)
let cat_io = 1
let cat_short = 2
let cat_grad = 3
let cat_oom = 4
let cat_delay = 5
let cat_kill = 6

let draw plan cat n = Prng.uniform (Prng.fold_in (Prng.fold_in plan.p_base cat) n)

let seed p = p.p_seed
let spec_text p = p.p_text
let kill_step p = p.p_kill_step

(* ------------------------------------------------------------------ *)
(* Parsing *)

let parse_prob key s =
  match float_of_string_opt s with
  | Some p when p >= 0. && p <= 1. -> Ok p
  | _ -> Error (Printf.sprintf "%s: expected a probability in [0,1], got %S" key s)

let parse_entry spec entry =
  match String.index_opt entry '=' with
  | None -> Error (Printf.sprintf "expected key=value, got %S" entry)
  | Some i ->
    let key = String.sub entry 0 i in
    let value = String.sub entry (i + 1) (String.length entry - i - 1) in
    let prob f = Result.map f (parse_prob key value) in
    (match key with
    | "io-error" -> prob (fun p -> { spec with io_error = p })
    | "short-write" -> prob (fun p -> { spec with short_write = p })
    | "grad-nan" -> prob (fun p -> { spec with grad_nan = p })
    | "grad-inf" -> prob (fun p -> { spec with grad_inf = p })
    | "oom" -> prob (fun p -> { spec with oom = p })
    | "delay" -> (
      match String.index_opt value ':' with
      | None -> Error "delay: expected delay=P:MS"
      | Some j ->
        let ps = String.sub value 0 j in
        let ms = String.sub value (j + 1) (String.length value - j - 1) in
        Result.bind (parse_prob "delay" ps) (fun p ->
            match float_of_string_opt ms with
            | Some m when m >= 0. && Float.is_finite m ->
              Ok { spec with delay_p = p; delay_ms = m }
            | _ -> Error (Printf.sprintf "delay: bad milliseconds %S" ms)))
    | "kill-at" -> (
      match int_of_string_opt value with
      | Some n when n >= 0 -> Ok { spec with kill = `At n }
      | _ -> Error (Printf.sprintf "kill-at: expected a step index, got %S" value))
    | "kill-in" -> (
      let parts = String.split_on_char '.' value in
      match List.filter (fun s -> s <> "") parts with
      | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when 0 <= lo && lo <= hi ->
          Ok { spec with kill = `In (lo, hi) }
        | _ -> Error (Printf.sprintf "kill-in: expected LO..HI, got %S" value))
      | _ -> Error (Printf.sprintf "kill-in: expected LO..HI, got %S" value))
    | _ -> Error (Printf.sprintf "unknown fault kind %S" key))

let plan_of_string ~seed text =
  let entries =
    String.split_on_char ' ' (String.map (function ',' | ';' -> ' ' | c -> c) text)
    |> List.filter (fun s -> s <> "")
  in
  let rec build spec = function
    | [] -> Ok spec
    | e :: rest -> Result.bind (parse_entry spec e) (fun spec -> build spec rest)
  in
  Result.map
    (fun spec ->
      let base = Prng.key seed in
      let kill_step =
        match spec.kill with
        | `Never -> None
        | `At n -> Some n
        | `In (lo, hi) ->
          (* Resolved once, from the plan's own key stream. *)
          let u = Prng.uniform (Prng.fold_in base cat_kill) in
          Some (lo + int_of_float (u *. float_of_int (hi - lo + 1)))
      in
      {
        p_seed = seed;
        p_text = text;
        p_spec = spec;
        p_base = base;
        p_kill_step = kill_step;
        counts = Array.make (cat_grad + 1) 0;
        tally = Hashtbl.create 8;
      })
    (build empty_spec entries)

let plan_to_json p =
  let open Obs.Json in
  let s = p.p_spec in
  to_string
    (Obj
       [ ("seed", Num (float_of_int p.p_seed));
         ("spec", Str p.p_text);
         ("io_error", Num s.io_error);
         ("short_write", Num s.short_write);
         ("grad_nan", Num s.grad_nan);
         ("grad_inf", Num s.grad_inf);
         ("oom", Num s.oom);
         ("delay_p", Num s.delay_p);
         ("delay_ms", Num s.delay_ms);
         ( "kill_step",
           match p.p_kill_step with
           | Some k -> Num (float_of_int k)
           | None -> Null ) ])

(* ------------------------------------------------------------------ *)
(* Installation *)

let installed : plan option ref = ref None
let active () = !installed <> None
let current () = !installed

(* One lock guards every plan's occurrence counters and tallies: the
   checkpoint writer thread consults the I/O hooks while the step
   thread consults the gradient and step hooks, and a thread switch
   must never land inside a counter update or a [Hashtbl] resize. *)
let lock = Mutex.create ()

(* Threads inside {!capture}, each with the injections it recorded.
   Guarded by [lock]; a list is only ever touched by its own thread. *)
let capturing : (int * string list ref) list ref = ref []

let install p =
  Mutex.protect lock (fun () ->
      Array.fill p.counts 0 (Array.length p.counts) 0;
      Hashtbl.reset p.tally);
  installed := Some p

let clear () = installed := None

let next p cat =
  Mutex.protect lock (fun () ->
      let n = p.counts.(cat) in
      p.counts.(cat) <- n + 1;
      n)

let publish = List.iter (fun what -> Obs.incr ("fault/" ^ what))

let record p what =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt p.tally what with
      | Some r -> Stdlib.incr r
      | None -> Hashtbl.add p.tally what (ref 1));
  let self = Thread.id (Thread.self ()) in
  match Mutex.protect lock (fun () -> List.assoc_opt self !capturing) with
  | Some acc -> acc := what :: !acc
  | None -> publish [ what ]

let capture f =
  let self = Thread.id (Thread.self ()) in
  let acc = ref [] in
  Mutex.protect lock (fun () -> capturing := (self, acc) :: !capturing);
  let result =
    Fun.protect f ~finally:(fun () ->
        Mutex.protect lock (fun () ->
            capturing := List.remove_assoc self !capturing))
  in
  (result, List.rev !acc)

let injected () =
  match !installed with
  | None -> []
  | Some p ->
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) p.tally [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Hooks *)

let on_io ~op ~path =
  match !installed with
  | None -> ()
  | Some p ->
    let n = next p cat_io in
    if p.p_spec.io_error > 0. && draw p cat_io n < p.p_spec.io_error then begin
      record p "io_error";
      raise
        (Sys_error
           (Printf.sprintf "%s: injected %s fault (plan seed %d, io op %d)" path
              (match op with `Read -> "read" | `Write -> "write")
              p.p_seed n))
    end

let short_write_len ~path:_ ~full =
  match !installed with
  | None -> None
  | Some p ->
    let n = next p cat_short in
    if full > 0 && p.p_spec.short_write > 0.
       && draw p cat_short n < p.p_spec.short_write
    then begin
      record p "short_write";
      (* An independent draw picks how much of the write survives. *)
      let frac = draw p cat_short (n + 1000003) in
      Some (int_of_float (frac *. float_of_int full))
    end
    else None

let grad_poison ~name:_ =
  match !installed with
  | None -> None
  | Some p ->
    let s = p.p_spec in
    if s.grad_nan = 0. && s.grad_inf = 0. then None
    else begin
      let n = next p cat_grad in
      let u = draw p cat_grad n in
      if u < s.grad_nan then begin
        record p "grad_nan";
        Some Float.nan
      end
      else if u < s.grad_nan +. s.grad_inf then begin
        record p "grad_inf";
        Some Float.infinity
      end
      else None
    end

let on_step ~step =
  match !installed with
  | None -> ()
  | Some p ->
    (match p.p_kill_step with
    | Some k when k = step ->
      (* A real SIGKILL: no exception, no cleanup, no atexit — the
         process is gone, exactly like the OOM killer or a node
         failure. Durable checkpoints are the only way back. *)
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    let s = p.p_spec in
    if s.delay_p > 0. && draw p cat_delay step < s.delay_p then begin
      record p "delay";
      if s.delay_ms > 0. then Unix.sleepf (s.delay_ms /. 1000.)
    end;
    if s.oom > 0. && draw p cat_oom step < s.oom then begin
      record p "oom";
      raise Out_of_memory
    end
