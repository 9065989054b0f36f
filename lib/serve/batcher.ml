let key0 = Prng.key 0
(* Density evaluation is deterministic; the ambient ADEV key is unused. *)

type cfg = { max_batch : int; max_wait_us : float; queue_bound : int }

let default_cfg = { max_batch = 64; max_wait_us = 200.; queue_bound = 256 }

type model_entry = {
  m_name : string;
  m_model : unit Gen.t;
  m_guide : Store.Frame.t -> unit Gen.t;
  mutable m_store : Store.t;
  m_dir : string option;
  mutable m_stamp : string;  (* path of the loaded checkpoint, "" if none *)
  mutable m_last_poll : float;
  m_sig : string list;  (* sorted latent addresses *)
}

type outcome =
  | O_value of float
  | O_sample of (string * Proto.wire_value) list * float
  | O_grad of float * (string * float) list
  | O_error of string * string

type kind =
  | K_score of Trace.t
  | K_elbo of { seed : int; particles : int }
  | K_sample of int
  | K_grad of int

type job = {
  j_entry : model_entry;
  j_kind : kind;
  j_enq : float;
  j_deadline_ms : float option;
  j_cell : cell;
}

and cell = {
  c_m : Mutex.t;
  c_c : Condition.t;
  mutable c_out : outcome option;
}

type t = {
  cfg : cfg;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable is_draining : bool;
  mutable paused : bool;
  mutable exec : Thread.t option;
  models : (string, model_entry) Hashtbl.t;
  t0 : float;
  (* stats, guarded by [lock] *)
  mutable n_requests : int;
  mutable n_replies : int;
  mutable n_overloaded : int;
  mutable n_deadline : int;
  mutable n_rejected_draining : int;
  mutable n_batches : int;
  mutable n_rows : int;
  mutable n_coalesced : int;
  mutable n_vectorized_rows : int;
  mutable n_scalar_rows : int;
  mutable n_fallbacks : int;
  mutable max_batch_seen : int;
  mutable max_queue_seen : int;
  mutable n_reloads : int;
}

let create cfg =
  {
    cfg;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    is_draining = false;
    paused = false;
    exec = None;
    models = Hashtbl.create 8;
    t0 = Unix.gettimeofday ();
    n_requests = 0;
    n_replies = 0;
    n_overloaded = 0;
    n_deadline = 0;
    n_rejected_draining = 0;
    n_batches = 0;
    n_rows = 0;
    n_coalesced = 0;
    n_vectorized_rows = 0;
    n_scalar_rows = 0;
    n_fallbacks = 0;
    max_batch_seen = 0;
    max_queue_seen = 0;
    n_reloads = 0;
  }

(* ------------------------------------------------------------------ *)
(* Registry *)

let detached_guide entry =
  entry.m_guide (Store.Frame.make_detached entry.m_store)

let register t ~name ~model ~guide ~store ?params_dir () =
  let store, stamp =
    match params_dir with
    | None -> (store, "")
    | Some dir -> (
      match Store.load_latest_result dir with
      | Ok (s, path) ->
        Obs.message Obs.Other
          (Printf.sprintf "serve: %s warm-started from %s" name path);
        (s, path)
      | Error e ->
        Obs.message Obs.Other
          (Printf.sprintf "serve: %s starting fresh (%s)" name
             (Store.latest_error_message e));
        (store, ""))
  in
  let entry_sig =
    (* The servable contract requires a static latent structure, so one
       prior draw of the guide reveals the full address set. *)
    let probe = guide (Store.Frame.make_detached store) in
    let _, tr, _ = Gen.sample_prior probe key0 in
    List.sort compare (Trace.keys tr)
  in
  Hashtbl.replace t.models name
    {
      m_name = name;
      m_model = model;
      m_guide = guide;
      m_store = store;
      m_dir = params_dir;
      m_stamp = stamp;
      m_last_poll = Unix.gettimeofday ();
      m_sig = entry_sig;
    }

(* The synthetic load-test model: 8 scalar latents, each driving a
   24-deep chain of elementwise tanh updates that feed one scalar
   observe. Per request the interpreter builds ~600 AD nodes over
   scalars; coalesced, the same nodes carry [n]-vectors, which is
   exactly the amortization the daemon exists to exploit. Scalar sites
   only: every lane of the batched density is then bit-identical to
   the scalar evaluation (the lib/gen batched-engine invariant). *)
let chain_latents = 8
let chain_depth = 96

let chain_model : unit Gen.t =
  let open Gen.Syntax in
  let site i = Printf.sprintf "z%d" i in
  let rec draw i acc =
    if i >= chain_latents then Gen.return (List.rev acc)
    else
      let* z =
        Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) (site i)
      in
      draw (i + 1) (z :: acc)
  in
  let* zs = draw 0 [] in
  let head z =
    let rec go h d =
      if d = 0 then h
      else go (Ad.tanh (Ad.add (Ad.scale 0.9 h) (Ad.add_scalar 0.1 (Ad.scale 0.3 z)))) (d - 1)
    in
    go z chain_depth
  in
  let s = List.fold_left (fun acc z -> Ad.add acc (head z)) (Ad.scalar 0.) zs in
  Gen.observe (Dist.normal_reparam s (Ad.scalar 1.)) (Ad.scalar 0.5)

let chain_register store =
  for i = 0 to chain_latents - 1 do
    Store.ensure store (Printf.sprintf "chain.mu%d" i) (fun () ->
        Tensor.scalar 0.);
    Store.ensure store (Printf.sprintf "chain.rho%d" i) (fun () ->
        Tensor.scalar 0.)
  done

let chain_guide frame =
  let open Gen.Syntax in
  let p = Store.Frame.get frame in
  let pos rho = Ad.add_scalar 1e-3 (Ad.softplus rho) in
  let rec go i =
    if i >= chain_latents then Gen.return ()
    else
      let* _ =
        Gen.sample
          (Dist.normal_reparam
             (p (Printf.sprintf "chain.mu%d" i))
             (pos (p (Printf.sprintf "chain.rho%d" i))))
          (Printf.sprintf "z%d" i)
      in
      go (i + 1)
  in
  go 0

let register_builtins ?params_root t =
  let dir name =
    Option.map (fun root -> Filename.concat root name) params_root
  in
  let coin_store = Store.create () in
  Coin.register coin_store;
  register t ~name:"coin" ~model:Coin.model ~guide:Coin.guide ~store:coin_store
    ?params_dir:(dir "coin") ();
  let cone_store = Store.create () in
  Cone.register cone_store key0;
  register t ~name:"cone" ~model:Cone.model ~guide:Cone.guide_naive
    ~store:cone_store ?params_dir:(dir "cone") ();
  let chain_store = Store.create () in
  chain_register chain_store;
  register t ~name:"chain" ~model:chain_model ~guide:chain_guide
    ~store:chain_store ?params_dir:(dir "chain") ()

let models t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.models [] |> List.sort compare

let model_sig t name =
  Option.map (fun e -> e.m_sig) (Hashtbl.find_opt t.models name)

(* ------------------------------------------------------------------ *)
(* Checkpoint hot reload *)

let poll_reload t entry =
  match entry.m_dir with
  | None -> ()
  | Some dir ->
    let now = Unix.gettimeofday () in
    if now -. entry.m_last_poll >= 0.25 then begin
      entry.m_last_poll <- now;
      (* One readdir per poll; checkpoints are read only when the
         newest ckpt.N is not the one loaded. A corrupt newest is
         retried (falling back past it) on every poll until a newer
         one lands. *)
      let changed =
        try
          if Fault.active () then Fault.on_io ~op:`Read ~path:dir;
          match Store.newest_checkpoint dir with
          | Some newest -> newest <> entry.m_stamp
          | None -> false
        with Sys_error _ -> false
      in
      if changed then
        match Store.load_latest_result dir with
        | Ok (s, path) when path <> entry.m_stamp ->
          entry.m_store <- s;
          entry.m_stamp <- path;
          Mutex.lock t.lock;
          t.n_reloads <- t.n_reloads + 1;
          Mutex.unlock t.lock;
          Obs.incr "serve/reloads";
          Obs.message Obs.Other
            (Printf.sprintf "serve: %s hot-reloaded params from %s" entry.m_name
               path)
        | Ok _ | Error _ -> ()
    end

(* ------------------------------------------------------------------ *)
(* Execution *)

let wire_of_trace tr =
  List.map
    (fun (a, v) ->
      ( a,
        match v with
        | Value.Real ad ->
          let tv = Ad.value ad in
          if Tensor.shape tv = [||] then Proto.Scalar (Tensor.to_scalar tv)
          else Proto.Vector (Tensor.to_array tv)
        | Value.Bool b -> Proto.Scalar (if b then 1. else 0.)
        | Value.Int i -> Proto.Scalar (float_of_int i) ))
    (Trace.bindings tr)

let trace_of_wire pairs =
  Trace.of_list
    (List.map
       (fun (a, wv) ->
         ( a,
           Value.Real
             (match wv with
             | Proto.Scalar f -> Ad.scalar f
             | Proto.Vector arr ->
               Ad.const (Tensor.of_array [| Array.length arr |] arr)) ))
       pairs)

let density_scalar entry tr =
  Ad.to_float (Adev.run (Gen.log_density entry.m_model tr) key0 (fun w -> w))

(* One stacked density evaluation over [n >= 2] traces that all carry
   exactly the model's latent signature. Returns the per-row joint
   log-densities. Raises if the model or a payload refuses batching —
   the caller falls back to scalar rows. *)
let density_vectorized entry rows =
  let n = Array.length rows in
  let stacked =
    Trace.of_list
      (List.map
         (fun addr ->
           ( addr,
             Value.Real
               (Ad.stack0
                  (Array.to_list
                     (Array.map (fun tr -> Trace.get_ad addr tr) rows))) ))
         entry.m_sig)
  in
  let lw =
    Adev.run (Gen.log_density_batched ~n entry.m_model stacked) key0 (fun w -> w)
  in
  let v = Ad.value lw in
  if Tensor.shape v <> [| n |] then
    raise (Dist.Not_batchable "serve: batched density did not return [n] rows");
  Array.init n (Tensor.get_flat v)

(* A density row awaiting its share of a stacked evaluation. *)
type row = { r_trace : Trace.t; r_logq : float (* 0. for score rows *) }

let rows_of_job entry job =
  match job.j_kind with
  | K_score tr -> [ { r_trace = tr; r_logq = 0. } ]
  | K_elbo { seed; particles } ->
    let guide = detached_guide entry in
    List.init particles (fun p ->
        let _, qtrace, logq =
          Gen.sample_prior guide (Prng.fold_in (Prng.key seed) p)
        in
        { r_trace = qtrace; r_logq = logq })
  | K_sample _ | K_grad _ -> []

let deliver job out =
  Mutex.lock job.j_cell.c_m;
  job.j_cell.c_out <- Some out;
  Condition.signal job.j_cell.c_c;
  Mutex.unlock job.j_cell.c_m

let run_sample entry seed =
  let guide = detached_guide entry in
  let _, qtrace, logq = Gen.sample_prior guide (Prng.key seed) in
  O_sample (wire_of_trace qtrace, logq)

let run_grad entry seed =
  let frame = Store.Frame.make entry.m_store in
  let obj = Objectives.elbo ~model:entry.m_model ~guide:(entry.m_guide frame) in
  let surrogate = Adev.expectation obj (Prng.key seed) in
  Ad.backward surrogate;
  let grads =
    List.map
      (fun (name, g) -> (name, Tensor.global_norm [ g ]))
      (Store.Frame.grads frame)
  in
  O_grad (Ad.to_float surrogate, grads)

let trace_matches_sig entry tr = List.sort compare (Trace.keys tr) = entry.m_sig

(* Execute one same-model batch. Density rows (score + elbo particles)
   from every job are stacked into one [Gen.log_density_batched] run;
   sample/grad jobs run scalar inside the loop under their own keys. *)
let execute_batch t batch_no jobs =
  let entry = (List.hd jobs).j_entry in
  poll_reload t entry;
  if Fault.active () then Fault.on_step ~step:batch_no;
  (* Build density rows per job, then evaluate them all at once. *)
  let tagged =
    List.map
      (fun job ->
        let rows =
          try Ok (rows_of_job entry job)
          with e -> Error (Printexc.to_string e)
        in
        (job, rows))
      jobs
  in
  let all_rows =
    List.concat_map
      (function _, Ok rows -> rows | _, Error _ -> [])
      tagged
  in
  let vec_rows =
    List.filter (fun r -> trace_matches_sig entry r.r_trace) all_rows
  in
  let lookup : (Trace.t * float) list ref = ref [] in
  let n_vec = List.length vec_rows in
  (if n_vec >= 2 then
     match density_vectorized entry (Array.of_list (List.map (fun r -> r.r_trace) vec_rows)) with
     | lws ->
       Mutex.lock t.lock;
       t.n_vectorized_rows <- t.n_vectorized_rows + n_vec;
       Mutex.unlock t.lock;
       Obs.incr ~by:n_vec "serve/vectorized_rows";
       lookup := List.mapi (fun i r -> (r.r_trace, lws.(i))) vec_rows
     | exception (Dist.Not_batchable _ | Tensor.Shape_error _) ->
       Mutex.lock t.lock;
       t.n_fallbacks <- t.n_fallbacks + 1;
       Mutex.unlock t.lock;
       Obs.incr "serve/scalar_fallbacks");
  let density_of r =
    match List.assq_opt r.r_trace !lookup with
    | Some lw -> lw
    | None ->
      Mutex.lock t.lock;
      t.n_scalar_rows <- t.n_scalar_rows + 1;
      Mutex.unlock t.lock;
      density_scalar entry r.r_trace
  in
  List.iter
    (fun (job, rows) ->
      let out =
        match rows with
        | Error msg -> O_error ("internal", msg)
        | Ok rows -> (
          try
            match job.j_kind with
            | K_score _ -> O_value (density_of (List.hd rows))
            | K_elbo { particles; _ } ->
              let total =
                List.fold_left
                  (fun acc r -> acc +. (density_of r -. r.r_logq))
                  0. rows
              in
              O_value (total /. float_of_int particles)
            | K_sample seed -> run_sample entry seed
            | K_grad seed -> run_grad entry seed
          with
          | Out_of_memory -> O_error ("fault", "injected allocation failure")
          | e -> O_error ("internal", Printexc.to_string e))
      in
      Mutex.lock t.lock;
      t.n_replies <- t.n_replies + 1;
      Mutex.unlock t.lock;
      deliver job out)
    tagged

(* ------------------------------------------------------------------ *)
(* Executor thread *)

(* Pops the head job plus every same-model job behind it, up to
   [max_batch]; the rest keep their order. Called with [t.lock] held. *)
let take_batch t =
  let head = Queue.pop t.queue in
  let name = head.j_entry.m_name in
  let batch = ref [ head ] in
  let count = ref 1 in
  let rest = Queue.create () in
  while not (Queue.is_empty t.queue) do
    let j = Queue.pop t.queue in
    if !count < t.cfg.max_batch && j.j_entry.m_name = name then begin
      batch := j :: !batch;
      incr count
    end
    else Queue.push j rest
  done;
  Queue.transfer rest t.queue;
  List.rev !batch

let job_expired now job =
  match job.j_deadline_ms with
  | None -> false
  | Some d -> (now -. job.j_enq) *. 1000. > d

let exec_loop t =
  let batch_no = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while
      (t.paused || Queue.is_empty t.queue)
      && not (t.is_draining && Queue.is_empty t.queue)
    do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue && t.is_draining then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      (* Linger for company: new arrivals within the window join this
         batch. OCaml's Condition has no timed wait, so poll on a
         short sleep; the window is a few hundred microseconds. *)
      (if t.cfg.max_wait_us > 0. then begin
         let deadline =
           Unix.gettimeofday () +. (t.cfg.max_wait_us *. 1e-6)
         in
         let rec linger () =
           if
             Queue.length t.queue < t.cfg.max_batch
             && (not t.is_draining)
             && Unix.gettimeofday () < deadline
           then begin
             Mutex.unlock t.lock;
             Thread.delay 2e-5;
             Mutex.lock t.lock;
             linger ()
           end
         in
         linger ()
       end);
      let batch = take_batch t in
      let size = List.length batch in
      t.n_batches <- t.n_batches + 1;
      t.n_rows <- t.n_rows + size;
      if size > 1 then t.n_coalesced <- t.n_coalesced + (size - 1);
      if size > t.max_batch_seen then t.max_batch_seen <- size;
      Mutex.unlock t.lock;
      Obs.hist "serve/batch_size" (float_of_int size);
      Obs.hist "serve/queue_depth"
        (float_of_int (Queue.length t.queue + size));
      incr batch_no;
      (* Expired jobs answer [deadline] instead of being executed. *)
      let now = Unix.gettimeofday () in
      let expired, live = List.partition (job_expired now) batch in
      List.iter
        (fun job ->
          Mutex.lock t.lock;
          t.n_deadline <- t.n_deadline + 1;
          t.n_replies <- t.n_replies + 1;
          Mutex.unlock t.lock;
          Obs.incr "serve/deadline_rejects";
          deliver job
            (O_error ("deadline", "request exceeded its queueing deadline")))
        expired;
      (match live with
      | [] -> ()
      | jobs ->
        Obs.span Obs.Other "serve/exec" (fun () ->
            execute_batch t !batch_no jobs))
    end
  done

let start t =
  Mutex.lock t.lock;
  (match t.exec with
  | Some _ -> Mutex.unlock t.lock
  | None ->
    let th = Thread.create exec_loop t in
    t.exec <- Some th;
    Mutex.unlock t.lock)

let drain t =
  Mutex.lock t.lock;
  t.is_draining <- true;
  t.paused <- false;
  Condition.broadcast t.nonempty;
  let th = t.exec in
  Mutex.unlock t.lock;
  Option.iter Thread.join th;
  Mutex.lock t.lock;
  t.exec <- None;
  Mutex.unlock t.lock

let draining t =
  Mutex.lock t.lock;
  let d = t.is_draining in
  Mutex.unlock t.lock;
  d

let pause t =
  Mutex.lock t.lock;
  t.paused <- true;
  Mutex.unlock t.lock

let resume t =
  Mutex.lock t.lock;
  t.paused <- false;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Submission *)

let await cell =
  Mutex.lock cell.c_m;
  while cell.c_out = None do
    Condition.wait cell.c_c cell.c_m
  done;
  let out = Option.get cell.c_out in
  Mutex.unlock cell.c_m;
  out

let submit t ?deadline_ms req =
  let t_req = Obs.start () in
  let finish op out =
    Obs.stop Obs.Other ("serve/request/" ^ op) t_req;
    out
  in
  let op = Proto.request_op req in
  let enqueue entry kind =
    (* The fault plan's io hooks cover the admission path, so chaos
       drills can exercise overload/error replies deterministically. *)
    match
      if Fault.active () then
        Fault.on_io ~op:`Read ~path:("serve/" ^ entry.m_name)
    with
    | exception Sys_error msg -> finish op (O_error ("fault", msg))
    | () ->
      Mutex.lock t.lock;
      if t.is_draining then begin
        t.n_rejected_draining <- t.n_rejected_draining + 1;
        Mutex.unlock t.lock;
        Obs.incr "serve/draining_rejects";
        finish op (O_error ("draining", "server is draining; not accepting work"))
      end
      else if Queue.length t.queue >= t.cfg.queue_bound then begin
        t.n_overloaded <- t.n_overloaded + 1;
        Mutex.unlock t.lock;
        Obs.incr "serve/overloaded";
        finish op
          (O_error
             ( "overloaded",
               Printf.sprintf "queue depth is at the bound (%d); retry later"
                 t.cfg.queue_bound ))
      end
      else begin
        let cell =
          { c_m = Mutex.create (); c_c = Condition.create (); c_out = None }
        in
        let job =
          {
            j_entry = entry;
            j_kind = kind;
            j_enq = Unix.gettimeofday ();
            j_deadline_ms = deadline_ms;
            j_cell = cell;
          }
        in
        Queue.push job t.queue;
        t.n_requests <- t.n_requests + 1;
        let depth = Queue.length t.queue in
        if depth > t.max_queue_seen then t.max_queue_seen <- depth;
        Condition.signal t.nonempty;
        Mutex.unlock t.lock;
        Obs.incr "serve/requests";
        finish op (await cell)
      end
  in
  let with_model name k =
    match Hashtbl.find_opt t.models name with
    | Some entry -> k entry
    | None ->
      finish op
        (O_error ("unknown-model", Printf.sprintf "no servable model %S" name))
  in
  match req with
  | Proto.Score { model; trace } ->
    with_model model (fun entry -> enqueue entry (K_score (trace_of_wire trace)))
  | Proto.Elbo { model; seed; particles } ->
    with_model model (fun entry -> enqueue entry (K_elbo { seed; particles }))
  | Proto.Sample { model; seed } ->
    with_model model (fun entry -> enqueue entry (K_sample seed))
  | Proto.Grad { model; seed } ->
    with_model model (fun entry -> enqueue entry (K_grad seed))
  | Proto.Hello _ | Proto.Health | Proto.Stats ->
    finish op (O_error ("bad-request", "not a queueable request"))

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = {
  s_uptime_s : float;
  s_queue_depth : int;
  s_requests : int;
  s_replies : int;
  s_overloaded : int;
  s_deadline : int;
  s_rejected_draining : int;
  s_batches : int;
  s_rows : int;
  s_coalesced : int;
  s_vectorized_rows : int;
  s_scalar_rows : int;
  s_fallbacks : int;
  s_max_batch : int;
  s_max_queue : int;
  s_reloads : int;
  s_draining : bool;
}

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      s_uptime_s = Unix.gettimeofday () -. t.t0;
      s_queue_depth = Queue.length t.queue;
      s_requests = t.n_requests;
      s_replies = t.n_replies;
      s_overloaded = t.n_overloaded;
      s_deadline = t.n_deadline;
      s_rejected_draining = t.n_rejected_draining;
      s_batches = t.n_batches;
      s_rows = t.n_rows;
      s_coalesced = t.n_coalesced;
      s_vectorized_rows = t.n_vectorized_rows;
      s_scalar_rows = t.n_scalar_rows;
      s_fallbacks = t.n_fallbacks;
      s_max_batch = t.max_batch_seen;
      s_max_queue = t.max_queue_seen;
      s_reloads = t.n_reloads;
      s_draining = t.is_draining;
    }
  in
  Mutex.unlock t.lock;
  s

let coalesce_ratio s =
  if s.s_batches = 0 then 1.
  else float_of_int s.s_rows /. float_of_int s.s_batches

let queue_depth t =
  Mutex.lock t.lock;
  let d = Queue.length t.queue in
  Mutex.unlock t.lock;
  d

let stats_json t =
  let s = stats t in
  let module J = Obs.Json in
  let num f = J.Num f in
  let int i = num (float_of_int i) in
  let model_rows =
    List.map
      (fun name ->
        ( name,
          J.Obj
            [ ( "latents",
                J.Arr
                  (List.map
                     (fun a -> J.Str a)
                     (Option.value ~default:[] (model_sig t name))) )
            ] ))
      (models t)
  in
  J.Obj
    [ ("uptime_s", num s.s_uptime_s);
      ("queue_depth", int s.s_queue_depth);
      ("requests", int s.s_requests);
      ("replies", int s.s_replies);
      ("overloaded", int s.s_overloaded);
      ("deadline_rejects", int s.s_deadline);
      ("draining_rejects", int s.s_rejected_draining);
      ("batches", int s.s_batches);
      ("rows", int s.s_rows);
      ("coalesced", int s.s_coalesced);
      ("coalesce_ratio", num (coalesce_ratio s));
      ("vectorized_rows", int s.s_vectorized_rows);
      ("scalar_rows", int s.s_scalar_rows);
      ("scalar_fallbacks", int s.s_fallbacks);
      ("max_batch", int s.s_max_batch);
      ("max_queue", int s.s_max_queue);
      ("reloads", int s.s_reloads);
      ("draining", J.Bool s.s_draining);
      ("models", J.Obj model_rows)
    ]
