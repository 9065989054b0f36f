(* Durable persistence tests: v2 checksummed round-trips (bit-exact,
   including NaN/Inf), v1 compatibility, corruption and truncation
   detection (every strict prefix must raise, never OOM), rotated
   checkpoints with fallback, and atomic-save failure behavior. *)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ppvi-test-store-%d-%d" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    dir

let tmp_file () = Filename.concat (tmp_dir ()) "store.ckpt"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let u32 n =
  let b = Buffer.create 4 in
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (n land 0xFF));
  Buffer.contents b

let tensor_bits x =
  Array.map Int64.bits_of_float (Tensor.to_array x)

let store_bits store =
  List.map (fun n -> (n, tensor_bits (Store.tensor store n))) (Store.names store)

let check_bits msg a b =
  Alcotest.(check (list (pair string (array int64)))) msg a b

let sample_store () =
  let store = Store.create () in
  Store.ensure store "w" (fun () ->
      Tensor.of_list1 [ 1.5; -2.25; Float.nan; Float.infinity ]);
  Store.ensure store "b" (fun () -> Tensor.scalar (-0.0));
  Store.ensure store "m" (fun () ->
      Tensor.of_array [| 2; 2 |] [| 1e-310; Float.neg_infinity; 0.; 42. |]);
  store

let test_roundtrip_v2 () =
  let store = sample_store () in
  let path = tmp_file () in
  Store.save store path;
  let loaded = Store.load path in
  check_bits "bit-exact round-trip" (store_bits store) (store_bits loaded)

let test_roundtrip_v1 () =
  let store = sample_store () in
  let path = tmp_file () in
  Store.save_v1 store path;
  let loaded = Store.load path in
  check_bits "v1 files stay readable" (store_bits store) (store_bits loaded)

let is_corrupt f =
  match f () with
  | (_ : Store.t) -> false
  | exception Store.Corrupt_checkpoint _ -> true

let test_every_prefix_corrupt () =
  let store = sample_store () in
  let path = tmp_file () in
  Store.save store path;
  let data = read_file path in
  let cut = Filename.concat (Filename.dirname path) "prefix.ckpt" in
  for len = 0 to String.length data - 1 do
    write_file cut (String.sub data 0 len);
    if not (is_corrupt (fun () -> Store.load cut)) then
      Alcotest.failf "prefix of %d/%d bytes loaded without error" len
        (String.length data)
  done;
  (* sanity: the full file still loads *)
  write_file cut data;
  ignore (Store.load cut)

let test_bit_rot_detected () =
  let store = sample_store () in
  let path = tmp_file () in
  Store.save store path;
  let data = Bytes.of_string (read_file path) in
  (* flip one bit in the middle of the payload *)
  let i = Bytes.length data / 2 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x10));
  write_file path (Bytes.to_string data);
  Alcotest.(check bool) "flipped byte detected" true
    (is_corrupt (fun () -> Store.load path))

let test_trailing_bytes_detected () =
  let store = sample_store () in
  let dir = tmp_dir () in
  let v2 = Filename.concat dir "v2.ckpt" in
  let v1 = Filename.concat dir "v1.ckpt" in
  Store.save store v2;
  Store.save_v1 store v1;
  write_file v2 (read_file v2 ^ "garbage");
  write_file v1 (read_file v1 ^ "garbage");
  Alcotest.(check bool) "v2 trailing bytes" true
    (is_corrupt (fun () -> Store.load v2));
  Alcotest.(check bool) "v1 trailing bytes" true
    (is_corrupt (fun () -> Store.load v1))

(* Absurd length fields must raise Corrupt_checkpoint after a cheap
   bound check against the file's actual size — not attempt a
   multi-gigabyte allocation. (v1, because it has no checksum to catch
   the lie first.) *)
let test_absurd_lengths () =
  let dir = tmp_dir () in
  let craft name body =
    let path = Filename.concat dir name in
    write_file path ("PPVISTOR" ^ u32 1 ^ body);
    path
  in
  let absurd_name = craft "name.ckpt" (u32 1 ^ u32 0x7FFFFF00) in
  let absurd_count = craft "count.ckpt" (u32 0x7FFFFF00) in
  let absurd_rank = craft "rank.ckpt" (u32 1 ^ u32 1 ^ "a" ^ u32 0x7FFFFF00) in
  let absurd_dim =
    craft "dim.ckpt" (u32 1 ^ u32 1 ^ "a" ^ u32 2 ^ u32 0x7FFF ^ u32 0x7FFFF)
  in
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (Filename.basename path ^ " rejected") true
        (is_corrupt (fun () -> Store.load path)))
    [ absurd_name; absurd_count; absurd_rank; absurd_dim ]

let test_duplicate_name_rejected () =
  let store = Store.create () in
  Store.ensure store "a" (fun () -> Tensor.scalar 1.);
  let dir = tmp_dir () in
  let path = Filename.concat dir "dup.ckpt" in
  Store.save_v1 store path;
  let data = read_file path in
  let record = String.sub data 16 (String.length data - 16) in
  write_file path ("PPVISTOR" ^ u32 1 ^ u32 2 ^ record ^ record);
  Alcotest.(check bool) "duplicate tensor name rejected" true
    (is_corrupt (fun () -> Store.load path))

let test_rotation_and_fallback () =
  let dir = tmp_dir () in
  Alcotest.(check (option (pair pass string)))
    "empty dir -> None" None
    (Store.load_latest (Filename.concat dir "missing"));
  let saved =
    List.init 5 (fun i ->
        let store = Store.create () in
        Store.ensure store "x" (fun () -> Tensor.scalar (float_of_int i));
        Store.save_rotated ~keep:3 store ~dir)
  in
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string))
    "keep=3 prunes the oldest"
    [ "ckpt.3"; "ckpt.4"; "ckpt.5" ]
    files;
  (match Store.load_latest dir with
  | Some (store, path) ->
    Alcotest.(check string) "newest wins" (List.nth saved 4) path;
    Alcotest.(check (float 0.)) "newest payload" 4.
      (Tensor.to_scalar (Store.tensor store "x"))
  | None -> Alcotest.fail "expected a checkpoint");
  (* Truncate the newest: load_latest must fall back to ckpt.4. *)
  let newest = Filename.concat dir "ckpt.5" in
  let data = read_file newest in
  write_file newest (String.sub data 0 (String.length data / 2));
  (match Store.load_latest dir with
  | Some (store, path) ->
    Alcotest.(check string) "fallback past corrupt newest"
      (Filename.concat dir "ckpt.4")
      path;
    Alcotest.(check (float 0.)) "fallback payload" 3.
      (Tensor.to_scalar (Store.tensor store "x"))
  | None -> Alcotest.fail "expected a fallback checkpoint");
  (* Corrupt every candidate: now loading must raise, not silently
     start fresh. *)
  List.iter
    (fun f ->
      match
        if String.length f > 5 && String.sub f 0 5 = "ckpt." then
          Some (Filename.concat dir f)
        else None
      with
      | Some path -> write_file path "PPVISTOR-not-really"
      | None -> ())
    (Array.to_list (Sys.readdir dir));
  Alcotest.(check bool) "all-corrupt dir raises" true
    (match Store.load_latest dir with
    | _ -> false
    | exception Store.Corrupt_checkpoint _ -> true)

(* A failing save must leave the previous checkpoint intact: the write
   goes to a temp file and the rename never happens. Fault injection
   with io-error=1 makes every write attempt fail deterministically. *)
let test_failed_save_preserves_old () =
  let path = tmp_file () in
  let old = sample_store () in
  Store.save old path;
  let updated = Store.create () in
  Store.ensure updated "w" (fun () -> Tensor.scalar 9.);
  (match Fault.plan_of_string ~seed:3 "io-error=1" with
  | Ok plan -> Fault.install plan
  | Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:Fault.clear (fun () ->
      Alcotest.(check bool) "save fails after retries" true
        (match Store.save ~retries:2 ~backoff_ms:0.001 updated path with
        | () -> false
        | exception Sys_error _ -> true));
  check_bits "old checkpoint intact" (store_bits old)
    (store_bits (Store.load path))

(* A short write (fault-truncated temp file) must also fail the save
   and leave no torn file at the destination. *)
let test_short_write_fails_save () =
  let path = tmp_file () in
  let old = sample_store () in
  Store.save old path;
  (match Fault.plan_of_string ~seed:11 "short-write=1" with
  | Ok plan -> Fault.install plan
  | Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:Fault.clear (fun () ->
      Alcotest.(check bool) "short write surfaces as Sys_error" true
        (match Store.save (sample_store ()) path with
        | () -> false
        | exception Sys_error _ -> true));
  check_bits "destination untouched" (store_bits old)
    (store_bits (Store.load path))

(* load_latest_result gives a typed, hinted answer for each way the
   resume UX can go wrong: missing dir, empty dir, all-corrupt. The
   legacy load_latest wrapper keeps its exact behavior. *)
let test_load_latest_result_typed_errors () =
  let dir = tmp_dir () in
  let missing = Filename.concat dir "never-created" in
  (match Store.load_latest_result missing with
  | Error (Store.No_directory d) ->
    Alcotest.(check string) "names the missing dir" missing d;
    let msg = Store.latest_error_message (Store.No_directory d) in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "missing-dir hint present" true
      (contains msg "hint" && contains msg d)
  | Ok _ -> Alcotest.fail "missing dir must not load"
  | Error e ->
    Alcotest.failf "wrong error class: %s" (Store.latest_error_message e));
  (* Exists but has no ckpt.N files. *)
  (match Store.load_latest_result dir with
  | Error (Store.No_checkpoints d) ->
    Alcotest.(check string) "names the empty dir" dir d
  | Ok _ -> Alcotest.fail "empty dir must not load"
  | Error e ->
    Alcotest.failf "wrong error class: %s" (Store.latest_error_message e));
  Alcotest.(check (option (pair pass string)))
    "load_latest still answers None on empty" None (Store.load_latest dir);
  (* Only corrupt candidates: typed All_corrupt, and the wrapper still
     raises rather than silently starting over. *)
  write_file (Filename.concat dir "ckpt.1") "PPVISTOR-not-really";
  write_file (Filename.concat dir "latest") "ckpt.1";
  (match Store.load_latest_result dir with
  | Error (Store.All_corrupt { dir = d; tried }) ->
    Alcotest.(check string) "names the dir" dir d;
    Alcotest.(check int) "counts candidates" 1 tried
  | Ok _ -> Alcotest.fail "corrupt dir must not load"
  | Error e ->
    Alcotest.failf "wrong error class: %s" (Store.latest_error_message e));
  Alcotest.(check bool) "load_latest still raises on all-corrupt" true
    (match Store.load_latest dir with
    | _ -> false
    | exception Store.Corrupt_checkpoint _ -> true);
  (* Happy path: a real checkpoint loads with its path. *)
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 7.);
  let written = Store.save_rotated store ~dir in
  match Store.load_latest_result dir with
  | Ok (loaded, path) ->
    Alcotest.(check string) "returns the written path" written path;
    Alcotest.(check (float 0.)) "payload" 7.
      (Tensor.to_scalar (Store.tensor loaded "x"))
  | Error e -> Alcotest.fail (Store.latest_error_message e)

(* Directories written by older versions also hold a [latest] pointer.
   It is ignored: a stale one naming an older checkpoint must not win
   over the newest readable [ckpt.N]. *)
let test_stale_latest_pointer_ignored () =
  let dir = tmp_dir () in
  List.iter
    (fun v ->
      let store = Store.create () in
      Store.ensure store "x" (fun () -> Tensor.scalar v);
      ignore (Store.save_rotated store ~dir))
    [ 1.; 2.; 3. ];
  write_file (Filename.concat dir "latest") "ckpt.1\n";
  (match Store.load_latest dir with
  | Some (store, path) ->
    Alcotest.(check string) "newest ckpt.N wins" (Filename.concat dir "ckpt.3") path;
    Alcotest.(check (float 0.)) "newest payload" 3.
      (Tensor.to_scalar (Store.tensor store "x"))
  | None -> Alcotest.fail "expected a checkpoint");
  (* With the newest damaged, the scan falls back to ckpt.2 — still
     not the pointer's ckpt.1. *)
  write_file (Filename.concat dir "ckpt.3") "PPVISTOR-not-really";
  match Store.load_latest dir with
  | Some (_, path) ->
    Alcotest.(check string) "fallback by index" (Filename.concat dir "ckpt.2") path
  | None -> Alcotest.fail "expected a fallback checkpoint"

(* The serializer before it was rewritten to fill one exact-size
   buffer, kept as the byte-level reference: a Buffer per image, one
   char at a time, with an independent bitwise CRC-32. *)
module Reference = struct
  let crc32 s pos len =
    let c = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      c := !c lxor Char.code s.[i];
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done
    done;
    !c lxor 0xFFFFFFFF

  let buf_u32 b n = Buffer.add_string b (u32 n)

  let buf_f64 b x =
    let bits = Int64.bits_of_float x in
    for i = 7 downto 0 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xFF))
    done

  let serialize t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "PPVISTOR";
    buf_u32 b 2;
    buf_u32 b (List.length (Store.names t));
    List.iter
      (fun name ->
        let x = Store.tensor t name in
        let start = Buffer.length b in
        buf_u32 b (String.length name);
        Buffer.add_string b name;
        let shape = Tensor.shape x in
        buf_u32 b (Array.length shape);
        Array.iter (buf_u32 b) shape;
        Array.iter (buf_f64 b) (Tensor.to_array x);
        let record = Buffer.sub b start (Buffer.length b - start) in
        buf_u32 b (crc32 record 0 (String.length record)))
      (Store.names t);
    let body = Buffer.contents b in
    buf_u32 b (crc32 body 0 (String.length body));
    Buffer.contents b
end

let test_serialize_matches_reference () =
  let store = sample_store () in
  Alcotest.(check string) "same bytes" (Reference.serialize store)
    (Store.serialize store);
  (* Pinned: the image of [sample_store], as every writer of format 2
     has produced it. *)
  Alcotest.(check string) "committed checksum"
    "9c5241f054395d32ba579055748843d2"
    (Digest.to_hex (Digest.string (Store.serialize store)));
  let path = tmp_file () in
  Store.save store path;
  Alcotest.(check string) "save writes the image" (Store.serialize store)
    (read_file path)

(* A fixed training state: two parameters, ADAM moments after two
   steps (the second skips a non-finite gradient), guard counters. *)
let persist_state () =
  let store = Store.create () in
  Store.ensure store "w" (fun () -> Tensor.of_list1 [ 1.5; -2.25; 0.5 ]);
  Store.ensure store "b" (fun () -> Tensor.scalar (-0.0));
  let optim = Optim.adam ~lr:0.1 () in
  Optim.step optim Optim.Ascend store
    [ ("w", Tensor.of_list1 [ 0.25; -1.; 3. ]); ("b", Tensor.scalar 0.5) ];
  Optim.step optim Optim.Ascend store
    [ ("w", Tensor.of_list1 [ -0.5; 2.; 1e-3 ]); ("b", Tensor.scalar Float.nan) ];
  let guard = Guard.create () in
  Guard.resume guard ~retries:2 ~skips:3;
  (store, optim, guard)

let test_persist_image_pinned () =
  let store, optim, guard = persist_state () in
  let dir = tmp_dir () in
  Persist.save (Persist.cfg dir) ~step:7 ~store ~optim ~guard;
  (* Pinned: the checkpoint image of [persist_state] at step 7, as
     every writer of training checkpoints has produced it. *)
  Alcotest.(check string) "committed checksum"
    "8423d7f4d8343ac80acc91b1fefe1865"
    (Digest.to_hex (Digest.string (read_file (Filename.concat dir "ckpt.1"))))

let test_persist_save_leaves_store () =
  let store, optim, guard = persist_state () in
  let before = store_bits store in
  Persist.save (Persist.cfg (tmp_dir ())) ~step:7 ~store ~optim ~guard;
  Alcotest.(check (list string)) "names" [ "w"; "b" ] (Store.names store);
  check_bits "values" before (store_bits store)

(* qcheck: random stores round-trip bit-exactly, including NaN. *)
let float_gen =
  QCheck.Gen.(
    frequency
      [ (8, float);
        (1, return Float.nan);
        (1, oneofl [ Float.infinity; Float.neg_infinity; -0.0; 1e-310 ]) ])

let prop_roundtrip =
  QCheck.Test.make ~name:"store round-trip is bit-exact (incl. NaN)" ~count:40
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 4) (array_size (int_range 1 6) float_gen)))
    (fun arrays ->
      let store = Store.create () in
      List.iteri
        (fun i a ->
          Store.ensure store
            (Printf.sprintf "p%d" i)
            (fun () -> Tensor.of_array [| Array.length a |] a))
        arrays;
      let path = tmp_file () in
      Store.save store path;
      store_bits (Store.load path) = store_bits store)

(* qcheck: the serializer is byte-identical to the reference on
   random stores — ranks 0 to 3, empty dimensions, odd names, NaN,
   infinities and -0.0. *)
let prop_serialize_reference =
  let entry =
    QCheck.Gen.(
      pair (string_size ~gen:printable (int_range 0 12))
        (list_size (int_range 0 3) (int_range 0 4))
      >>= fun (name, dims) ->
      let n = List.fold_left ( * ) 1 dims in
      map (fun data -> (name, Array.of_list dims, data)) (array_size (return n) float_gen))
  in
  QCheck.Test.make ~name:"serializer bytes = reference serializer" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 0 5) entry))
    (fun entries ->
      let store = Store.create () in
      List.iteri
        (fun i (name, shape, data) ->
          Store.ensure store (Printf.sprintf "%s#%d" name i) (fun () ->
              Tensor.of_array shape data))
        entries;
      Store.serialize store = Reference.serialize store)

(* qcheck: chopping a random strict prefix always raises. *)
let prop_prefix_corrupt =
  QCheck.Test.make ~name:"any strict prefix raises Corrupt_checkpoint"
    ~count:60
    (QCheck.make QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 0 10)))
    (fun (cut_seed, n_extra) ->
      let store = Store.create () in
      Store.ensure store "a" (fun () -> Tensor.of_list1 [ 1.; 2.; 3. ]);
      for i = 0 to n_extra - 1 do
        Store.ensure store
          (Printf.sprintf "extra%d" i)
          (fun () -> Tensor.scalar (float_of_int i))
      done;
      let path = tmp_file () in
      Store.save store path;
      let data = read_file path in
      let len = cut_seed mod String.length data in
      write_file path (String.sub data 0 len);
      is_corrupt (fun () -> Store.load path))

let suites =
  [ ( "store-persistence",
      [ Alcotest.test_case "v2 round-trip" `Quick test_roundtrip_v2;
        Alcotest.test_case "v1 compatibility" `Quick test_roundtrip_v1;
        Alcotest.test_case "every prefix corrupt" `Quick
          test_every_prefix_corrupt;
        Alcotest.test_case "bit rot detected" `Quick test_bit_rot_detected;
        Alcotest.test_case "trailing bytes detected" `Quick
          test_trailing_bytes_detected;
        Alcotest.test_case "absurd lengths bounded" `Quick test_absurd_lengths;
        Alcotest.test_case "duplicate names rejected" `Quick
          test_duplicate_name_rejected;
        Alcotest.test_case "rotation and fallback" `Quick
          test_rotation_and_fallback;
        Alcotest.test_case "failed save keeps old file" `Quick
          test_failed_save_preserves_old;
        Alcotest.test_case "short write fails save" `Quick
          test_short_write_fails_save;
        Alcotest.test_case "load_latest_result typed errors" `Quick
          test_load_latest_result_typed_errors;
        Alcotest.test_case "stale latest pointer ignored" `Quick
          test_stale_latest_pointer_ignored;
        Alcotest.test_case "serializer matches reference" `Quick
          test_serialize_matches_reference;
        Alcotest.test_case "persist image pinned" `Quick
          test_persist_image_pinned;
        Alcotest.test_case "persist save leaves the store" `Quick
          test_persist_save_leaves_store ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_serialize_reference; prop_prefix_corrupt ] ) ]
