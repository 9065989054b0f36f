(* Training state rides inside the parameter store image under
   reserved "__"-prefixed names, so the durable format stays "a bag of
   named tensors" and every Store guarantee (checksums, atomicity,
   rotation, fallback) covers the whole training state for free. *)

type cfg = {
  dir : string;
  every : int;
  keep : int;
  retries : int;
  backoff_ms : float;
}

let cfg ?(every = 25) ?(keep = 3) ?(retries = 2) ?(backoff_ms = 5.) dir =
  if every < 1 then invalid_arg "Persist.cfg: every < 1";
  { dir; every; keep; retries; backoff_ms }

let step_key = "__ckpt/step"
let retries_key = "__ckpt/guard_retries"
let skips_key = "__ckpt/guard_skips"
let optim_prefix = "__optim/"

let is_reserved name = String.length name >= 2 && name.[0] = '_' && name.[1] = '_'

(* The image's store shares the live tensors: both callers serialize
   it at once, on the calling thread, so nothing mutates them first. *)
let pack ~step ~store ~optim ~guard =
  let packed = Store.create () in
  let add name x = Store.ensure packed name (fun () -> x) in
  List.iter (fun name -> add name (Store.tensor store name)) (Store.names store);
  add step_key (Tensor.scalar (float_of_int step));
  add retries_key (Tensor.scalar (float_of_int (Guard.retry_count guard)));
  add skips_key (Tensor.scalar (float_of_int (Guard.skip_count guard)));
  List.iter
    (fun (name, x) -> add (optim_prefix ^ name) x)
    (Optim.export_state optim);
  packed

let save cfg ~step ~store ~optim ~guard =
  ignore
    (Store.save_rotated ~keep:cfg.keep ~retries:cfg.retries
       ~backoff_ms:cfg.backoff_ms
       (pack ~step ~store ~optim ~guard)
       ~dir:cfg.dir)

(* --- Background writer ---

   The step thread snapshots and serializes; a systhread runs the
   durable write. A write's thread is joined before the next one
   starts, so at most one image is in flight and images are written in
   submission order: the sequence of store I/O (and of [Fault]
   decisions) is the synchronous one. The writer touches no [Obs]
   table: its retry messages and captured fault injections come back
   with its outcome and are recorded by the step thread. *)

type outcome = {
  retried : string list;
  injected : string list;
  error : (exn * Printexc.raw_backtrace) option;
}

type writer = {
  w_cfg : cfg;
  mutable in_flight : (Thread.t * outcome option ref) option;
}

let writer cfg = { w_cfg = cfg; in_flight = None }

let write cfg image =
  let retried = ref [] in
  let error, injected =
    Fault.capture (fun () ->
        match
          Store.write_rotated ~keep:cfg.keep ~retries:cfg.retries
            ~backoff_ms:cfg.backoff_ms
            ~on_retry:(fun msg -> retried := msg :: !retried)
            image ~dir:cfg.dir
        with
        | (_ : string) -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ()))
  in
  { retried = List.rev !retried; injected; error }

let join w =
  match w.in_flight with
  | None -> None
  | Some (thread, outcome) ->
    Thread.join thread;
    w.in_flight <- None;
    !outcome

let drain w =
  Option.iter
    (fun o ->
      List.iter Store.note_retry o.retried;
      Fault.publish o.injected;
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) o.error)
    (join w)

let submit w ~step ~store ~optim ~guard =
  drain w;
  let image = Store.serialize (pack ~step ~store ~optim ~guard) in
  let outcome = ref None in
  let thread = Thread.create (fun () -> outcome := Some (write w.w_cfg image)) () in
  w.in_flight <- Some (thread, outcome)

(* Without a yield, the writer waits for the runtime's 50 ms tick after
   every syscall before it gets the domain lock back. *)
let yield w = if Option.is_some w.in_flight then Thread.yield ()

let close w = ignore (join w)

type resumed = { step : int; path : string }

let scalar_int packed name ~default =
  if Store.mem packed name then
    int_of_float (Tensor.to_scalar (Store.tensor packed name))
  else default

let load_into cfg ~store ~optim ~guard =
  match Store.load_latest cfg.dir with
  | None -> None
  | Some (packed, path) ->
    let step = scalar_int packed step_key ~default:0 in
    List.iter
      (fun name ->
        if not (is_reserved name) then begin
          let x = Store.tensor packed name in
          if Store.mem store name then Store.set store name x
          else Store.ensure store name (fun () -> x)
        end)
      (Store.names packed);
    let optim_entries =
      List.filter_map
        (fun name ->
          if String.length name > String.length optim_prefix
             && String.sub name 0 (String.length optim_prefix) = optim_prefix
          then
            Some
              ( String.sub name (String.length optim_prefix)
                  (String.length name - String.length optim_prefix),
                Store.tensor packed name )
          else None)
        (Store.names packed)
    in
    Optim.import_state optim optim_entries;
    Guard.resume guard
      ~retries:(scalar_int packed retries_key ~default:0)
      ~skips:(scalar_int packed skips_key ~default:0);
    Some { step; path }
