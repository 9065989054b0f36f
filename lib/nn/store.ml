type t = {
  tensors : (string, Tensor.t) Hashtbl.t;
  mutable order : string list;  (* reverse registration order *)
}

let create () = { tensors = Hashtbl.create 16; order = [] }

let ensure t name init =
  if not (Hashtbl.mem t.tensors name) then begin
    Hashtbl.add t.tensors name (init ());
    t.order <- name :: t.order
  end

let mem t name = Hashtbl.mem t.tensors name

let tensor t name =
  match Hashtbl.find_opt t.tensors name with
  | Some x -> x
  | None -> raise Not_found

let set t name x =
  if not (Hashtbl.mem t.tensors name) then raise Not_found;
  Hashtbl.replace t.tensors name x

let names t = List.rev t.order

let parameter_count t =
  Hashtbl.fold (fun _ x acc -> acc + Tensor.size x) t.tensors 0

(* Rebuild each tensor from its raw contents so the copy shares no
   buffers with the original — checkpoint snapshots must stay intact
   even if a backend with in-place tensor mutation is plugged in. *)
let deep_copy_tensor x = Tensor.of_array (Tensor.shape x) (Tensor.to_array x)

let copy t =
  let tensors = Hashtbl.create (Hashtbl.length t.tensors) in
  Hashtbl.iter (fun name x -> Hashtbl.add tensors name (deep_copy_tensor x)) t.tensors;
  { tensors; order = t.order }

let restore t ~from =
  List.iter
    (fun name ->
      let x = deep_copy_tensor (tensor from name) in
      if Hashtbl.mem t.tensors name then Hashtbl.replace t.tensors name x
      else begin
        Hashtbl.add t.tensors name x;
        t.order <- name :: t.order
      end)
    (names from)

(* On-disk format (all integers big-endian):
     magic "PPVISTOR" | version u32 | count u32
     then per tensor, in registration order:
     name_len u32 | name bytes | rank u32 | dims u32* | elems f64*
   Version 2 appends a CRC-32 (IEEE) u32 after each tensor record
   (covering that record's bytes) and a whole-file CRC-32 u32 after the
   last record (covering every preceding byte, header included), so
   both truncation and bit rot are detected before any tensor is
   trusted. Version-1 files (no checksums) remain readable.
   Floats are stored as their IEEE-754 bit patterns, so a round-trip is
   bit-exact (including NaNs and infinities). *)

let magic = "PPVISTOR"
let format_version = 2

exception Corrupt_checkpoint of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt_checkpoint s)) fmt

module Crc32 = struct
  (* Standard IEEE 802.3 CRC-32, table-driven, over 63-bit ints masked
     to 32 bits — no Int32 boxing on the hot path. *)
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  let bytes b pos len =
    let table = Lazy.force table in
    let c = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  let sub s pos len = bytes (Bytes.unsafe_of_string s) pos len
end

(* Serialization into one buffer of the exact image size, CRCs
   computed in place: building the image in memory is what lets the
   save be atomic (single rename) and checksummed. *)

let set_u32 b pos n = Bytes.set_int32_be b pos (Int32.of_int n)

(* Write one tensor record at [pos]; returns the position after it. *)
let serialize_tensor b ~crc pos (name, x) =
  let len = String.length name and shape = Tensor.shape x in
  set_u32 b pos len;
  Bytes.blit_string name 0 b (pos + 4) len;
  set_u32 b (pos + 4 + len) (Array.length shape);
  Array.iteri (fun i d -> set_u32 b (pos + 8 + len + (4 * i)) d) shape;
  let elems = pos + 8 + len + (4 * Array.length shape) in
  for i = 0 to Tensor.size x - 1 do
    Bytes.set_int64_be b (elems + (8 * i)) (Int64.bits_of_float (Tensor.get_flat x i))
  done;
  let stop = elems + (8 * Tensor.size x) in
  if crc then set_u32 b stop (Crc32.bytes b pos (stop - pos));
  if crc then stop + 4 else stop

let encode ~version t =
  let crc = version >= 2 and header = String.length magic + 8 in
  let checksum = if crc then 4 else 0 in
  let entries = List.map (fun name -> (name, tensor t name)) (names t) in
  let b =
    Bytes.create
      (List.fold_left
         (fun acc (name, x) ->
           acc + 8 + String.length name + (4 * Tensor.rank x) + (8 * Tensor.size x)
           + checksum)
         (header + checksum) entries)
  in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  set_u32 b (String.length magic) version;
  set_u32 b (String.length magic + 4) (List.length entries);
  let stop = List.fold_left (serialize_tensor b ~crc) header entries in
  if crc then set_u32 b stop (Crc32.bytes b 0 stop);
  Bytes.unsafe_to_string b

let serialize t = encode ~version:format_version t

(* Atomic durable write: the image lands in a temp file in the target's
   directory, is flushed and fsync'd, and only then renamed over the
   destination — a crash at any point leaves either the old file or the
   new one, never a torn hybrid. Flush/fsync/close failures (ENOSPC,
   EIO) surface as [Sys_error]; they are never swallowed into a
   "successful" truncated checkpoint. *)

let fsync_out oc =
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (Printf.sprintf "fsync: %s" (Unix.error_message e)))

let fsync_dir dir =
  (* Best-effort: persists the rename itself. Some filesystems refuse
     directory fsync; that is not worth failing a save over. *)
  match Unix.openfile (if dir = "" then "." else dir) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

let write_file_atomic ~path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let committed = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      let closed = ref false in
      Fun.protect
        ~finally:(fun () -> if not !closed then close_out_noerr oc)
        (fun () ->
          if Fault.active () then begin
            Fault.on_io ~op:`Write ~path:tmp;
            match Fault.short_write_len ~path:tmp ~full:(String.length data) with
            | Some n ->
              output_substring oc data 0 n;
              flush oc;
              raise (Sys_error (tmp ^ ": injected short write fault"))
            | None -> ()
          end;
          output_string oc data;
          flush oc;
          fsync_out oc;
          closed := true;
          close_out oc);
      Sys.rename tmp path;
      committed := true;
      fsync_dir (Filename.dirname path))

(* Deterministic retry-with-backoff for transient I/O faults: attempt
   [retries] extra times, sleeping [backoff_ms * 2^attempt] between
   tries. The schedule is fixed (no jitter), so a replayed fault plan
   sees the identical sequence of attempts. *)
let note_retry msg =
  Obs.incr "store/io_retries";
  Obs.message Obs.Fault msg

let with_io_retries ~retries ~backoff_ms ~on_retry ~what f =
  let rec attempt i =
    try f ()
    with Sys_error msg when i < retries ->
      on_retry
        (Printf.sprintf "store: %s failed (%s); retry %d/%d" what msg (i + 1)
           retries);
      if backoff_ms > 0. then
        Unix.sleepf (backoff_ms *. Float.of_int (1 lsl i) /. 1000.);
      attempt (i + 1)
  in
  attempt 0

let write_image ~retries ~backoff_ms ~on_retry data path =
  with_io_retries ~retries ~backoff_ms ~on_retry ~what:("save to " ^ path)
    (fun () -> write_file_atomic ~path data)

let save ?(retries = 0) ?(backoff_ms = 10.) t path =
  write_image ~retries ~backoff_ms ~on_retry:note_retry (serialize t) path

let save_v1 t path =
  write_file_atomic ~path (encode ~version:1 t)

(* --- Reading --- *)

let get_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let get_f64 s pos =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code s.[pos + i]))
  done;
  Int64.float_of_bits !bits

(* Parse the record section shared by both versions from an in-memory
   image. Every length field is validated against the bytes actually
   remaining before any allocation is sized from it, so a corrupt or
   adversarial file raises [Corrupt_checkpoint] — never a multi-GB
   [Array.init] or [Out_of_memory]. *)
let parse_records ~path ~crc s ~pos ~limit ~count =
  let t = create () in
  let pos = ref pos in
  let need n what =
    if n < 0 || n > limit - !pos then
      corrupt "%s: truncated or corrupt %s (need %d bytes, %d remain)" path what
        n (limit - !pos)
  in
  let u32 what =
    need 4 what;
    let v = get_u32 s !pos in
    pos := !pos + 4;
    v
  in
  (* Each tensor record is at least name_len + rank = 8 bytes. *)
  if count < 0 || count > (limit - !pos) / 8 then
    corrupt "%s: absurd tensor count %d for a %d-byte file" path count
      (String.length s);
  for _ = 1 to count do
    let record_start = !pos in
    let name_len = u32 "name length" in
    need name_len "tensor name";
    let name = String.sub s !pos name_len in
    pos := !pos + name_len;
    let rank = u32 "rank" in
    if rank > (limit - !pos) / 4 then
      corrupt "%s: absurd rank %d for tensor %S" path rank name;
    let shape =
      Array.init rank (fun _ ->
          let d = get_u32 s !pos in
          pos := !pos + 4;
          d)
    in
    let n =
      Array.fold_left
        (fun acc d ->
          if d < 0 || (d > 0 && acc > (limit - !pos) / 8 / d) then
            corrupt "%s: absurd dimensions for tensor %S" path name
          else acc * d)
        1 shape
    in
    need (n * 8) "tensor elements";
    let data =
      Array.init n (fun i -> get_f64 s (!pos + (i * 8)))
    in
    pos := !pos + (n * 8);
    if crc then begin
      let stored = u32 "tensor checksum" in
      let actual = Crc32.sub s record_start (!pos - 4 - record_start) in
      if stored <> actual then
        corrupt "%s: checksum mismatch on tensor %S (stored %08x, computed %08x)"
          path name stored actual
    end;
    if mem t name then corrupt "%s: duplicate tensor name %S" path name;
    ensure t name (fun () -> Tensor.of_array shape data)
  done;
  if !pos <> limit then
    corrupt "%s: %d trailing bytes after the last tensor record" path
      (limit - !pos);
  t

let load path =
  if Fault.active () then Fault.on_io ~op:`Read ~path;
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let len = String.length data in
  let header = String.length magic + 8 in
  if len < header then corrupt "%s: truncated header" path;
  if String.sub data 0 (String.length magic) <> magic then
    corrupt "%s: bad magic (not a ppvi checkpoint)" path;
  let version = get_u32 data (String.length magic) in
  let count = get_u32 data (String.length magic + 4) in
  match version with
  | 1 -> parse_records ~path ~crc:false data ~pos:header ~limit:len ~count
  | 2 ->
    if len < header + 4 then corrupt "%s: truncated file checksum" path;
    let stored = get_u32 data (len - 4) in
    let actual = Crc32.sub data 0 (len - 4) in
    if stored <> actual then
      corrupt "%s: file checksum mismatch (stored %08x, computed %08x)" path
        stored actual;
    parse_records ~path ~crc:true data ~pos:header ~limit:(len - 4) ~count
  | v ->
    corrupt "%s: unsupported checkpoint version %d (this build reads 1-%d)" path
      v format_version

(* --- Rotated checkpoints ---

   A checkpoint directory holds [ckpt.N] files (monotonically
   increasing N) and nothing else of ours. Each is renamed into place
   only after its fsync, and temp names ([ckpt.N.tmp.PID]) never parse
   as an index, so the newest readable [ckpt.N] is the whole truth:
   [load_latest] scans newest index first, skipping anything
   unreadable. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ckpt_prefix = "ckpt."

let ckpt_index name =
  if String.length name > String.length ckpt_prefix
     && String.sub name 0 (String.length ckpt_prefix) = ckpt_prefix
  then
    int_of_string_opt
      (String.sub name (String.length ckpt_prefix)
         (String.length name - String.length ckpt_prefix))
  else None

let list_checkpoints dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun name ->
           match ckpt_index name with
           | Some i -> Some (i, Filename.concat dir name)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare b a)

let newest_checkpoint dir =
  match list_checkpoints dir with (_, path) :: _ -> Some path | [] -> None

let write_rotated ?(keep = 3) ?(retries = 0) ?(backoff_ms = 10.)
    ?(on_retry = note_retry) data ~dir =
  if keep < 1 then invalid_arg "Store.write_rotated: keep < 1";
  mkdir_p dir;
  let next =
    match list_checkpoints dir with (i, _) :: _ -> i + 1 | [] -> 1
  in
  let path = Filename.concat dir (Printf.sprintf "%s%d" ckpt_prefix next) in
  write_image ~retries ~backoff_ms ~on_retry data path;
  (* Prune beyond the keep-count — newest first, and only after the new
     checkpoint is durable. *)
  List.iteri
    (fun i (_, p) ->
      if i >= keep then try Sys.remove p with Sys_error _ -> ())
    (list_checkpoints dir);
  path

let save_rotated ?keep ?retries ?backoff_ms t ~dir =
  write_rotated ?keep ?retries ?backoff_ms (serialize t) ~dir

type latest_error =
  | No_directory of string
  | No_checkpoints of string
  | All_corrupt of { dir : string; tried : int }

let latest_error_message = function
  | No_directory dir ->
    Printf.sprintf
      "%s: checkpoint directory does not exist (hint: a checkpointed run \
       creates it; nothing to resume yet)"
      dir
  | No_checkpoints dir ->
    Printf.sprintf
      "%s: directory holds no ckpt.N checkpoints (hint: nothing to resume \
       yet; a checkpointed run writes ckpt.N files)"
      dir
  | All_corrupt { dir; tried } ->
    Printf.sprintf "%s: all %d checkpoint candidate(s) are corrupt or unreadable"
      dir tried

let load_latest_result dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (No_directory dir)
  else begin
    let candidates = List.map snd (list_checkpoints dir) in
    let rec try_load = function
      | [] ->
        if candidates = [] then Error (No_checkpoints dir)
        else Error (All_corrupt { dir; tried = List.length candidates })
      | path :: rest -> (
        match load path with
        | t -> Ok (t, path)
        | exception (Corrupt_checkpoint msg | Sys_error msg) ->
          Obs.incr "store/fallbacks";
          Obs.message Obs.Fault
            (Printf.sprintf
               "store: skipping unreadable checkpoint %s (%s); falling back to \
                an older one"
               path msg);
          try_load rest)
    in
    try_load candidates
  end

let load_latest dir =
  match load_latest_result dir with
  | Ok loaded -> Some loaded
  | Error (No_directory _ | No_checkpoints _) -> None
  | Error (All_corrupt _ as e) -> raise (Corrupt_checkpoint (latest_error_message e))

module Frame = struct
  type store = t
  type t = { store : store; leaves : (string, Ad.t) Hashtbl.t; detached : bool }

  let make store = { store; leaves = Hashtbl.create 16; detached = false }
  let make_detached store = { store; leaves = Hashtbl.create 16; detached = true }

  let get f name =
    if f.detached then Ad.const (tensor f.store name)
    else
      match Hashtbl.find_opt f.leaves name with
      | Some leaf -> leaf
      | None ->
        let leaf = Ad.const (tensor f.store name) in
        Hashtbl.add f.leaves name leaf;
        leaf

  let detach f = make_detached f.store
  let get_detached f name = Ad.const (tensor f.store name)

  let params f =
    Hashtbl.fold (fun name leaf acc -> (name, leaf) :: acc) f.leaves []

  let grads f =
    List.map (fun (name, leaf) -> (name, Ad.grad leaf)) (params f)
end
