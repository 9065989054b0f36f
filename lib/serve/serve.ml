type transport = [ `Unix of string | `Tcp of string * int ]

type cfg = {
  transport : transport;
  max_batch : int;
  max_wait_us : float;
  queue_bound : int;
  params_root : string option;
  pid_file : string option;
}

let default_cfg transport =
  {
    transport;
    max_batch = Batcher.default_cfg.Batcher.max_batch;
    max_wait_us = Batcher.default_cfg.Batcher.max_wait_us;
    queue_bound = Batcher.default_cfg.Batcher.queue_bound;
    params_root = None;
    pid_file = None;
  }

type server = {
  cfg : cfg;
  b : Batcher.t;
  lsock : Unix.file_descr;
  t0 : float;
  want_drain : bool Atomic.t;
  lock : Mutex.t;
  mutable conn_fds : Unix.file_descr list;  (* open connections *)
  mutable accept_thread : Thread.t option;
  mutable drain_done : bool;
}

let bind_transport = function
  | `Unix path ->
    if Sys.file_exists path then (try Unix.unlink path with Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    fd
  | `Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let addr = Unix.inet_addr_of_string host in
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 128;
    fd

let health_reply s =
  Proto.R_health
    {
      status = (if Atomic.get s.want_drain then "draining" else "serving");
      version = Proto.build_version;
      schema = Proto.schema_version;
      uptime_s = Unix.gettimeofday () -. s.t0;
      models = Batcher.models s.b;
    }

let reply_of_outcome = function
  | Batcher.O_value v -> Proto.R_value v
  | Batcher.O_sample (trace, logq) -> Proto.R_sample { trace; logq }
  | Batcher.O_grad (value, grads) -> Proto.R_grad { value; grads }
  | Batcher.O_error (code, msg) -> Proto.R_error { code; msg }

(* One thread per connection: handshake, then answer frames in order.
   After a drain begins, new work gets an explicit [draining] error —
   a reply, never silence — and the loop keeps serving until the
   client hangs up, so no request the client managed to write is ever
   dropped on the floor. *)
let handle_conn s fd =
  let send reply =
    try
      Proto.write_frame fd (Proto.encode_reply reply);
      true
    with Unix.Unix_error _ | Sys_error _ -> false
  in
  let handshake () =
    match Proto.read_frame fd with
    | Error _ -> false
    | Ok j -> (
      match Proto.decode_request j with
      | Ok { id; req = Proto.Hello { version = _; schema }; _ } ->
        if schema <> Proto.schema_version then (
          ignore
            (send
               {
                 Proto.rid = id;
                 reply =
                   Proto.R_error
                     {
                       code = "schema-mismatch";
                       msg =
                         Printf.sprintf
                           "server speaks serve schema %d, client sent %d; \
                            upgrade the older side (%s)"
                           Proto.schema_version schema Proto.version_string;
                     };
               });
          false)
        else
          send
            {
              Proto.rid = id;
              reply =
                Proto.R_hello
                  {
                    version = Proto.build_version;
                    schema = Proto.schema_version;
                    models = Batcher.models s.b;
                  };
            }
      | Ok { id; _ } ->
        ignore
          (send
             {
               Proto.rid = id;
               reply =
                 Proto.R_error
                   {
                     code = "bad-request";
                     msg = "the first frame on a connection must be hello";
                   };
             });
        false
      | Error msg ->
        ignore
          (send
             {
               Proto.rid = 0;
               reply = Proto.R_error { code = "bad-request"; msg };
             });
        false)
  in
  let rec serve_loop () =
    match Proto.read_frame fd with
    | Error (Proto.Eof | Proto.Truncated) -> ()
    | Error e ->
      ignore
        (send
           {
             Proto.rid = 0;
             reply =
               Proto.R_error
                 { code = "bad-request"; msg = Proto.frame_error_to_string e };
           })
    | Ok j ->
      let reply =
        match Proto.decode_request j with
        | Error msg -> { Proto.rid = 0; reply = Proto.R_error { code = "bad-request"; msg } }
        | Ok { id; deadline_ms; req } ->
          let r =
            match req with
            | Proto.Health -> health_reply s
            | Proto.Stats -> Proto.R_stats (Batcher.stats_json s.b)
            | Proto.Hello _ ->
              Proto.R_error
                { code = "bad-request"; msg = "hello only opens a connection" }
            | _ when Atomic.get s.want_drain ->
              Obs.incr "serve/draining_rejects";
              Proto.R_error
                {
                  code = "draining";
                  msg = "server is draining; not accepting work";
                }
            | req -> reply_of_outcome (Batcher.submit s.b ?deadline_ms req)
          in
          { Proto.rid = id; reply = r }
      in
      if send reply then serve_loop ()
  in
  let close () =
    Mutex.lock s.lock;
    s.conn_fds <- List.filter (fun f -> f != fd) s.conn_fds;
    Mutex.unlock s.lock;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* From its handshake until it closes, the connection is one client
     the batcher may linger for. *)
  Fun.protect ~finally:close (fun () ->
      if handshake () then Batcher.with_client s.b serve_loop)

let accept_loop s =
  let continue = ref true in
  while !continue && not (Atomic.get s.want_drain) do
    match Unix.select [ s.lsock ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept s.lsock with
      | fd, _ ->
        Mutex.lock s.lock;
        s.conn_fds <- fd :: s.conn_fds;
        Mutex.unlock s.lock;
        Obs.incr "serve/connections";
        ignore (Thread.create (handle_conn s) fd)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> continue := false
  done;
  (* Stop accepting: a client that connects after the drain request is
     refused at once instead of waiting in the backlog for an accept
     that never comes. *)
  try Unix.close s.lsock with Unix.Unix_error _ -> ()

let start cfg =
  let b =
    Batcher.create
      {
        Batcher.max_batch = cfg.max_batch;
        max_wait_us = cfg.max_wait_us;
        queue_bound = cfg.queue_bound;
      }
  in
  Batcher.register_builtins ?params_root:cfg.params_root b;
  Batcher.start b;
  let lsock = bind_transport cfg.transport in
  (match cfg.pid_file with
  | Some path ->
    let oc = open_out path in
    output_string oc (string_of_int (Unix.getpid ()));
    output_char oc '\n';
    close_out oc
  | None -> ());
  let s =
    {
      cfg;
      b;
      lsock;
      t0 = Unix.gettimeofday ();
      want_drain = Atomic.make false;
      lock = Mutex.create ();
      conn_fds = [];
      accept_thread = None;
      drain_done = false;
    }
  in
  s.accept_thread <- Some (Thread.create accept_loop s);
  Obs.message Obs.Other
    (Printf.sprintf "serve: listening (%s), models: %s" Proto.version_string
       (String.concat ", " (Batcher.models b)));
  s

let batcher s = s.b
let request_drain s = Atomic.set s.want_drain true

let drained s =
  Mutex.lock s.lock;
  let d = s.drain_done in
  Mutex.unlock s.lock;
  d

let grace_s = 10.

let wait s =
  (* Wait for the drain trigger, then unwind in order: stop accepting,
     flush the queue, let clients hang up (bounded by the grace
     period), release the socket. *)
  while not (Atomic.get s.want_drain) do
    Thread.delay 0.05
  done;
  Option.iter Thread.join s.accept_thread;
  Batcher.drain s.b;
  let deadline = Unix.gettimeofday () +. grace_s in
  Mutex.lock s.lock;
  while s.conn_fds <> [] && Unix.gettimeofday () < deadline do
    Mutex.unlock s.lock;
    Thread.delay 0.02;
    Mutex.lock s.lock
  done;
  let stragglers = s.conn_fds in
  Mutex.unlock s.lock;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    stragglers;
  (match s.cfg.transport with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | `Tcp _ -> ());
  (match s.cfg.pid_file with
  | Some path -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ());
  Mutex.lock s.lock;
  s.drain_done <- true;
  Mutex.unlock s.lock;
  Obs.message Obs.Other "serve: drained cleanly"

let run cfg =
  let s = start cfg in
  let on_signal _ = request_drain s in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (* SIGPIPE would kill the process on a client reset mid-write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  wait s

(* ------------------------------------------------------------------ *)
(* Client *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    mutable next_id : int;
    info : string * int * string list;
  }

  let connect_fd = function
    | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      fd

  let connect transport =
    let fd = connect_fd transport in
    Proto.write_frame fd
      (Proto.encode_request
         {
           Proto.id = 0;
           deadline_ms = None;
           req =
             Proto.Hello
               { version = Proto.build_version; schema = Proto.schema_version };
         });
    match Proto.read_frame fd with
    | Error e ->
      Unix.close fd;
      failwith ("serve handshake failed: " ^ Proto.frame_error_to_string e)
    | Ok j -> (
      match Proto.decode_reply j with
      | Ok { reply = Proto.R_hello { version; schema; models }; _ } ->
        { fd; next_id = 1; info = (version, schema, models) }
      | Ok { reply = Proto.R_error { code; msg }; _ } ->
        Unix.close fd;
        failwith (Printf.sprintf "serve handshake refused (%s): %s" code msg)
      | Ok _ ->
        Unix.close fd;
        failwith "serve handshake returned an unexpected reply"
      | Error msg ->
        Unix.close fd;
        failwith ("serve handshake reply undecodable: " ^ msg))

  let server_info c = c.info

  let call c ?deadline_ms req =
    let id = c.next_id in
    c.next_id <- id + 1;
    (try
       Proto.write_frame c.fd
         (Proto.encode_request { Proto.id; deadline_ms; req })
     with Unix.Unix_error _ | Sys_error _ ->
       failwith "serve connection closed while sending");
    match Proto.read_frame c.fd with
    | Error e ->
      failwith ("serve connection lost: " ^ Proto.frame_error_to_string e)
    | Ok j -> (
      match Proto.decode_reply j with
      | Ok { reply; _ } -> reply
      | Error msg -> failwith ("undecodable reply: " ^ msg))

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Deterministic load generation *)

(* A plausible latent trace for each built-in model, drawn from Prng
   under (seed, index) — pure function of its arguments so sequential
   and concurrent passes generate identical requests. *)
let nth_score ~model ~seed i =
  let k = Prng.fold_in (Prng.key (0x5c07e + seed)) i in
  let trace =
    match model with
    | "coin" ->
      [ ("fairness", Proto.Scalar (0.02 +. (0.96 *. Prng.uniform k))) ]
    | "cone" ->
      let kx, ky = Prng.split k in
      [ ("x", Proto.Scalar (Prng.normal kx)); ("y", Proto.Scalar (Prng.normal ky)) ]
    | "chain" | _ ->
      List.init Batcher.chain_latents (fun j ->
          ( Printf.sprintf "z%d" j,
            Proto.Scalar (Prng.normal (Prng.fold_in k j)) ))
  in
  Proto.Score { model; trace }

let nth_request ~model ~seed i =
  if i mod 2 = 0 then nth_score ~model ~seed i
  else Proto.Elbo { model; seed = (seed * 1_000_003) + i; particles = 1 }

type load_report = {
  lr_sent : int;
  lr_ok : int;
  lr_overloaded : int;
  lr_draining : int;
  lr_deadline : int;
  lr_failed : int;
  lr_lost : int;
  lr_wall_s : float;
  lr_values : (int * Proto.reply) list;
}

let run_load transport ~clients ~requests ~model ~seed ?kill_after () =
  let total = clients * requests in
  let results : (int, Proto.reply) Hashtbl.t = Hashtbl.create total in
  let rlock = Mutex.create () in
  let sent = ref 0 in
  let replies_seen = ref 0 in
  let record i reply =
    Mutex.lock rlock;
    Hashtbl.replace results i reply;
    incr replies_seen;
    let fire =
      match kill_after with
      | Some (n, _) when !replies_seen = n -> true
      | _ -> false
    in
    Mutex.unlock rlock;
    match (fire, kill_after) with
    | true, Some (_, pid) -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    | _ -> ()
  in
  let worker c_idx () =
    match Client.connect transport with
    | exception _ -> ()
    | conn ->
      let stop = ref false in
      let r = ref 0 in
      while (not !stop) && !r < requests do
        let i = (!r * clients) + c_idx in
        let req = nth_request ~model ~seed i in
        Mutex.lock rlock;
        incr sent;
        Mutex.unlock rlock;
        (match Client.call conn req with
        | reply ->
          record i reply;
          (match reply with
          | Proto.R_error { code = "draining"; _ } -> stop := true
          | _ -> ())
        | exception Failure _ -> stop := true);
        incr r
      done;
      Client.close conn
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let ok = ref 0
  and overloaded = ref 0
  and draining = ref 0
  and deadline = ref 0
  and failed = ref 0 in
  Hashtbl.iter
    (fun _ reply ->
      match reply with
      | Proto.R_error { code = "overloaded"; _ } -> incr overloaded
      | Proto.R_error { code = "draining"; _ } -> incr draining
      | Proto.R_error { code = "deadline"; _ } -> incr deadline
      | Proto.R_error _ -> incr failed
      | _ -> incr ok)
    results;
  {
    lr_sent = !sent;
    lr_ok = !ok;
    lr_overloaded = !overloaded;
    lr_draining = !draining;
    lr_deadline = !deadline;
    lr_failed = !failed;
    lr_lost = !sent - Hashtbl.length results;
    lr_wall_s = wall_s;
    lr_values =
      Hashtbl.fold (fun i r acc -> (i, r) :: acc) results []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let reply_identical a b =
  match (a, b) with
  | Proto.R_value x, Proto.R_value y -> Proto.wire_value_equal (Scalar x) (Scalar y)
  | Proto.R_sample { trace = ta; logq = qa }, Proto.R_sample { trace = tb; logq = qb }
    ->
    Proto.wire_value_equal (Scalar qa) (Scalar qb)
    && List.length ta = List.length tb
    && List.for_all2
         (fun (na, va) (nb, vb) -> na = nb && Proto.wire_value_equal va vb)
         ta tb
  | Proto.R_grad { value = va; grads = ga }, Proto.R_grad { value = vb; grads = gb }
    ->
    Proto.wire_value_equal (Scalar va) (Scalar vb)
    && List.length ga = List.length gb
    && List.for_all2
         (fun (na, xa) (nb, xb) ->
           na = nb && Proto.wire_value_equal (Scalar xa) (Scalar xb))
         ga gb
  | Proto.R_error { code = ca; _ }, Proto.R_error { code = cb; _ } -> ca = cb
  | _ -> false

let mismatches ref_report other =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (i, r) -> Hashtbl.replace tbl i r) other.lr_values;
  List.fold_left
    (fun acc (i, r) ->
      match Hashtbl.find_opt tbl i with
      | Some r' when reply_identical r r' -> acc
      | _ -> acc + 1)
    0 ref_report.lr_values
