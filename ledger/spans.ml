(* The benchmark's span recorder. Spans are opened and closed around
   calls into the library's public functions from the benchmark's own
   code; they stay in memory and are written as JSON Lines (through
   Obs.Json, so [ppvi trace-lint] accepts the file) when the run ends.
   A span's self time is its duration minus the time its direct
   children cover. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  run : int;  (** the sub-run or session the span belongs to *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

type t = { origin : float; lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { origin = Common.now (); lock = Mutex.create (); next = 0; spans = [] }

let enter r ~run ?(parent = -1) name =
  Mutex.lock r.lock;
  let id = r.next in
  r.next <- id + 1;
  Mutex.unlock r.lock;
  let t0 = Common.now () in
  { id; parent; run; name; t0; t1 = t0 }

let leave r s =
  s.t1 <- Common.now ();
  Mutex.lock r.lock;
  r.spans <- s :: r.spans;
  Mutex.unlock r.lock

(* [within r ~run ~parent name f] times [f ()] as one span. *)
let within r ~run ?parent name f =
  let s = enter r ~run ?parent name in
  match f () with
  | v ->
    leave r s;
    v
  | exception e ->
    leave r s;
    raise e

let duration s = s.t1 -. s.t0

let all r = List.rev r.spans

(* Self time of every span, in seconds. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    spans

(* Total self time per span name, in seconds. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

let self_of tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

let write r path =
  let module J = Obs.Json in
  let ms t = J.Num ((t -. r.origin) *. 1000.) in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s, self) ->
          output_string oc
            (J.to_string
               (J.Obj
                  [ ("name", J.Str s.name);
                    ("id", Common.int s.id);
                    ("parent", if s.parent < 0 then J.Null else Common.int s.parent);
                    ("run", Common.int s.run);
                    ("start_ms", ms s.t0);
                    ("end_ms", ms s.t1);
                    ("self_ms", J.Num (self *. 1000.)) ]));
          output_char oc '\n')
        (self_times (all r)))
