(* Shared helpers for the ledger benchmark: order statistics, the
   working directory, child processes, /proc readings, and the result
   line a caller parses. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics (numpy's default
   rule): q = 0.5 is the median, q = 0.99 the p99. *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let minimum xs = List.fold_left Float.min infinity xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let variance xs =
  let m = mean xs in
  let n = List.length xs in
  if n < 2 then 0.
  else
    List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
    /. float_of_int (n - 1)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Working files: everything the benchmark writes lives under
   .bench_build/ledger in the working directory (the checkout root). *)

let work_root = Filename.concat ".bench_build" "ledger"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let counter = ref 0

(* A fresh path under the working root, unique per process and call. *)
let work_path prefix =
  mkdir_p work_root;
  incr counter;
  Filename.concat work_root
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* Child processes. Every spawned pid is tracked until reaped, and an
   exit hook kills and reaps whatever is left, so an aborted run never
   leaves a daemon or trainer behind. *)

let live_children : int list ref = ref []

let reap pid =
  live_children := List.filter (( <> ) pid) !live_children;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (reap pid) with Unix.Unix_error _ -> ())
        !live_children)

let dev_null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn ?stdout prog args =
  let null = Lazy.force dev_null in
  let out = Option.value stdout ~default:null in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) null out null in
  live_children := pid :: !live_children;
  pid

(* Run this executable again with [args]; returns the wall-clock time
   just before the spawn and the child's standard output. A child that
   exits non-zero is a failure of the run. *)
let run_self args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t_spawn = now () in
  let pid = spawn ~stdout:wr Sys.executable_name args in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match reap pid with
  | Unix.WEXITED 0 -> (t_spawn, out)
  | _ ->
    failwith
      (Printf.sprintf "child %s exited abnormally" (String.concat " " args))

(* The value of field [key] in /proc/PID/status of a live process
   (pid 0 is this process). *)
let proc_status pid key =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let prefix = key ^ ":" in
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then Some (String.trim (String.sub l n (String.length l - n)))
      else None)
    lines

(* Peak resident set size (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  match proc_status pid "VmHWM" with
  | None -> nan
  | Some v -> Scanf.sscanf v "%f kB" (fun kb -> kb /. 1024.)

(* Whether a live process has installed a handler for the Linux signal
   numbered [signo] (its bit in SigCgt). *)
let catches_signal pid signo =
  match proc_status pid "SigCgt" with
  | None -> false
  | Some mask ->
    let m = Int64.of_string ("0x" ^ mask) in
    Int64.logand (Int64.shift_right_logical m (signo - 1)) 1L = 1L

(* ------------------------------------------------------------------ *)
(* JSON helpers over Obs.Json *)

module J = Obs.Json

let num f = J.Num f
let int i = J.Num (float_of_int i)
let floats xs = J.Arr (List.map num xs)

(* Floats that must survive the pipe bit-exactly travel as Int64 bit
   patterns in decimal strings. *)
let bits xs = J.Arr (List.map (fun f -> J.Str (Int64.to_string (Int64.bits_of_float f))) xs)

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> failwith ("missing field " ^ name)

let to_num = function J.Num f -> f | _ -> failwith "expected a number"
let to_floats = function J.Arr l -> List.map to_num l | _ -> failwith "expected an array"

let to_bits = function
  | J.Arr l ->
    List.map
      (function
        | J.Str s -> Int64.float_of_bits (Int64.of_string s)
        | _ -> failwith "expected a bit string")
      l
  | _ -> failwith "expected an array"

let parse_line s =
  match J.parse (String.trim s) with
  | Ok j -> j
  | Error e -> failwith ("unparsable child output: " ^ e)

(* ------------------------------------------------------------------ *)
(* The result of one benchmark run *)

type metric = { name : string; value : float; unit_ : string }

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let attempt t n = t.attempted <- t.attempted + n

(* Record [bad] failed operations with a reason (shown on stderr). *)
let fail t ?(bad = 1) why =
  if bad > 0 then begin
    t.failed <- t.failed + bad;
    t.notes <- why :: t.notes
  end

let check t cond why =
  attempt t 1;
  if not cond then fail t why

(* Set-up time is the median of this many cold starts. *)
let cold_starts ~smoke = if smoke then 1 else 9

let result_json t metrics =
  J.Obj
    [ ("correct", J.Bool (t.failed = 0));
      ("attempted", int (Stdlib.max 1 t.attempted));
      ("failed", int t.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               (m.name, J.Obj [ ("value", num m.value); ("unit", J.Str m.unit_) ]))
             metrics) ) ]
