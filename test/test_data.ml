(* Tests for the synthetic datasets. *)

let k0 = Prng.key 404

(* ------------------------------------------------------------------ *)
(* Reference pipeline: the tensor-at-a-time generators the fused
   kernels in [Data] replaced, kept verbatim as the oracle for the
   bit-identical stream guarantee. *)

module Ref = struct
  let segments_of_digit = function
    | 0 -> [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ]
    | 1 -> [ 'b'; 'c' ]
    | 2 -> [ 'a'; 'b'; 'g'; 'e'; 'd' ]
    | 3 -> [ 'a'; 'b'; 'g'; 'c'; 'd' ]
    | 4 -> [ 'f'; 'g'; 'b'; 'c' ]
    | 5 -> [ 'a'; 'f'; 'g'; 'c'; 'd' ]
    | 6 -> [ 'a'; 'f'; 'g'; 'e'; 'c'; 'd' ]
    | 7 -> [ 'a'; 'b'; 'c' ]
    | 8 -> [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f'; 'g' ]
    | 9 -> [ 'a'; 'b'; 'c'; 'd'; 'f'; 'g' ]
    | d -> invalid_arg (Printf.sprintf "Data.digit_glyph: %d" d)

  let digit_glyph d =
    let segs = segments_of_digit d in
    let on seg = List.mem seg segs in
    let top = 1 and left = 3 in
    let h = 10 and w = 6 in
    Tensor.init [| Data.sprite_side; Data.sprite_side |] (fun ix ->
        let r = ix.(0) - top and c = ix.(1) - left in
        if r < 0 || r >= h || c < 0 || c >= w then 0.
        else begin
          let mid = h / 2 in
          let hit =
            (on 'a' && r = 0)
            || (on 'g' && r = mid)
            || (on 'd' && r = h - 1)
            || (on 'f' && c = 0 && r <= mid)
            || (on 'e' && c = 0 && r >= mid)
            || (on 'b' && c = w - 1 && r <= mid)
            || (on 'c' && c = w - 1 && r >= mid)
          in
          if hit then 1. else 0.
        end)

  let shift_image img dr dc =
    let side = (Tensor.shape img).(0) in
    Tensor.init [| side; side |] (fun ix ->
        let r = ix.(0) - dr and c = ix.(1) - dc in
        if r < 0 || r >= side || c < 0 || c >= side then 0.
        else Tensor.get img [| r; c |])

  (* The mask is the key-array draw [Array.map uniform (split_many k n)]
     that [Prng.uniform_tensor] documents, so the oracle does not share
     the draw kernel under test. *)
  let flip_pixels key rate img =
    let n = Tensor.size img in
    let u =
      Tensor.of_array (Tensor.shape img)
        (Array.map Prng.uniform (Prng.split_many key n))
    in
    Tensor.map2 (fun ui xi -> if ui < rate then 1. -. xi else xi) u img

  let sprite ?(noise = 0.02) key d =
    let k1, rest = Prng.split key in
    let k2, k3 = Prng.split rest in
    let dr = Prng.categorical k1 [| 1.; 1.; 1. |] - 1 in
    let dc = Prng.categorical k2 [| 1.; 1.; 1. |] - 1 in
    flip_pixels k3 noise (shift_image (digit_glyph d) dr dc)

  let stack0 dim rows =
    if rows = [] then Tensor.zeros [| 0; dim |] else Tensor.stack0 rows

  let digit_batch ?noise key n =
    let ks = Prng.split_many key n in
    let labels = Array.map (fun k -> Prng.categorical k (Array.make 10 1.)) ks in
    let images =
      Array.to_list
        (Array.mapi
           (fun i k -> Tensor.flatten (sprite ?noise (Prng.fold_in k 1) labels.(i)))
           ks)
    in
    (stack0 Data.sprite_dim images, labels)

  let patch_glyph d =
    let g = digit_glyph d in
    let ps = Data.patch_side and ss = Data.sprite_side in
    Tensor.init [| ps; ps |] (fun ix ->
        let r = ix.(0) * ss / ps in
        let c = ix.(1) * ss / ps in
        let any = ref 0. in
        for dr = 0 to (ss / ps) - 1 do
          for dc = 0 to (ss / ps) - 1 do
            if Tensor.get g [| r + dr; c + dc |] > 0.5 then any := 1.
          done
        done;
        !any)

  let render_scene objs =
    let side = Data.canvas_side in
    let canvas = Array.make Data.canvas_dim 0. in
    List.iter
      (fun (digit, pos) ->
        let patch = patch_glyph digit in
        let r0, c0 = Data.position_offset pos in
        for r = 0 to Data.patch_side - 1 do
          for c = 0 to Data.patch_side - 1 do
            let p = Tensor.get patch [| r; c |] in
            let i = ((r0 + r) * side) + (c0 + c) in
            canvas.(i) <- 1. -. ((1. -. canvas.(i)) *. (1. -. p))
          done
        done)
      objs;
    Tensor.of_array [| side; side |] canvas

  let air_scene key =
    let k1, rest = Prng.split key in
    let k2, k3 = Prng.split rest in
    let count = Prng.categorical k1 (Array.make (Data.max_objects + 1) 1.) in
    let positions = Prng.permutation k2 Data.num_positions in
    let objs =
      List.init count (fun i ->
          let digit = Prng.categorical (Prng.fold_in k3 i) (Array.make 10 1.) in
          (digit, positions.(i)))
    in
    let img = flip_pixels (Prng.fold_in k3 99) 0.01 (render_scene objs) in
    (Tensor.flatten img, count)

  let air_batch key n =
    let scenes = Array.map air_scene (Prng.split_many key n) in
    ( stack0 Data.canvas_dim (Array.to_list (Array.map fst scenes)),
      Array.map snd scenes )
end

(* Int64-level equality: same shape, same bits in every slot. *)
let same_bits a b =
  Tensor.shape a = Tensor.shape b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.to_array a) (Tensor.to_array b)

let same_batch (x, l) (x', l') = same_bits x x' && l = l'

let checksum (x, labels) =
  let h = ref 0xcbf29ce484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  Array.iter (fun f -> mix (Int64.bits_of_float f)) (Tensor.to_array x);
  Array.iter (fun l -> mix (Int64.of_int l)) labels;
  !h

let gen_key = QCheck.map Prng.key QCheck.int
let gen_noise = QCheck.oneofl [ None; Some 0.; Some 0.02; Some 0.5; Some 1. ]

let prop_digit_batch_bits =
  QCheck.Test.make ~name:"digit_batch = reference pipeline, bit for bit"
    ~count:40
    QCheck.(triple gen_key (int_range 0 300) gen_noise)
    (fun (key, n, noise) ->
      same_batch (Data.digit_batch ?noise key n) (Ref.digit_batch ?noise key n))

let prop_sprite_bits =
  QCheck.Test.make ~name:"sprite = reference pipeline, bit for bit" ~count:300
    QCheck.(triple gen_key (int_range 0 9) gen_noise)
    (fun (key, d, noise) ->
      same_bits (Data.sprite ?noise key d) (Ref.sprite ?noise key d))

let prop_air_batch_bits =
  QCheck.Test.make ~name:"air_batch = reference pipeline, bit for bit"
    ~count:40
    QCheck.(pair gen_key (int_range 0 100))
    (fun (key, n) ->
      same_batch (Data.air_batch key n) (Ref.air_batch key n)
      && same_batch
           (let x, c = Data.air_scene key in (x, [| c |]))
           (let x, c = Ref.air_scene key in (x, [| c |])))

let test_tables_match_reference () =
  for d = 0 to 9 do
    Alcotest.(check bool) (Printf.sprintf "glyph %d" d) true
      (same_bits (Data.digit_glyph d) (Ref.digit_glyph d));
    Alcotest.(check bool) (Printf.sprintf "patch %d" d) true
      (same_bits (Data.patch_glyph d) (Ref.patch_glyph d))
  done;
  let objs = [ (3, 0); (8, 3); (1, 1) ] in
  Alcotest.(check bool) "render_scene" true
    (same_bits (Data.render_scene objs) (Ref.render_scene objs))

(* Computed with the reference pipeline; pins the training stream that
   the VAE's ELBO target and loss floors were measured on. *)
let digit_batch_key0_256 = -1956300124499787192L

let test_pinned_checksum () =
  Alcotest.(check int64) "digit_batch (key 0) 256" digit_batch_key0_256
    (checksum (Data.digit_batch (Prng.key 0) 256));
  Alcotest.(check int64) "reference agrees" digit_batch_key0_256
    (checksum (Ref.digit_batch (Prng.key 0) 256))

let test_bad_digit () =
  Alcotest.check_raises "sprite 10"
    (Invalid_argument "Data.digit_glyph: 10") (fun () ->
      ignore (Data.sprite k0 10));
  Alcotest.check_raises "sprite -1"
    (Invalid_argument "Data.digit_glyph: -1") (fun () ->
      ignore (Data.sprite k0 (-1)));
  Alcotest.check_raises "render_scene 12"
    (Invalid_argument "Data.digit_glyph: 12") (fun () ->
      ignore (Data.render_scene [ (12, 0) ]))

let test_empty_batches () =
  let x, labels = Data.digit_batch k0 0 in
  Alcotest.(check (array int)) "digit_batch 0 shape" [| 0; Data.sprite_dim |]
    (Tensor.shape x);
  Alcotest.(check (array int)) "no labels" [||] labels;
  let x, counts = Data.air_batch k0 0 in
  Alcotest.(check (array int)) "air_batch 0 shape" [| 0; Data.canvas_dim |]
    (Tensor.shape x);
  Alcotest.(check (array int)) "no counts" [||] counts

let test_negative_batches () =
  let raises_naming name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted a negative size" name
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" msg name)
        true
        (String.starts_with ~prefix:("Data." ^ name ^ ":") msg)
  in
  raises_naming "digit_batch" (fun () -> ignore (Data.digit_batch k0 (-1)));
  raises_naming "air_batch" (fun () -> ignore (Data.air_batch k0 (-3)))

let test_glyphs_distinct () =
  let glyphs = List.init 10 Data.digit_glyph in
  List.iteri
    (fun i gi ->
      List.iteri
        (fun j gj ->
          if i < j && Tensor.equal gi gj then
            Alcotest.failf "digits %d and %d render identically" i j)
        glyphs)
    glyphs;
  List.iter
    (fun g ->
      Alcotest.(check (array int)) "12x12"
        [| Data.sprite_side; Data.sprite_side |]
        (Tensor.shape g);
      Alcotest.(check bool) "binary" true
        (Array.for_all (fun x -> x = 0. || x = 1.) (Tensor.to_array g)))
    glyphs

let test_sprite_jitter () =
  let a = Data.sprite k0 3 in
  let b = Data.sprite (Prng.fold_in k0 1) 3 in
  Alcotest.(check bool) "jitter varies" true (not (Tensor.equal a b));
  Alcotest.(check bool) "deterministic" true
    (Tensor.equal (Data.sprite k0 3) (Data.sprite k0 3))

let test_digit_batch () =
  let images, labels = Data.digit_batch k0 20 in
  Alcotest.(check (array int)) "shape" [| 20; Data.sprite_dim |]
    (Tensor.shape images);
  Alcotest.(check bool) "labels in range" true
    (Array.for_all (fun l -> l >= 0 && l < 10) labels)

let test_position_offsets_disjoint () =
  let cells =
    List.init Data.num_positions (fun p ->
        let r0, c0 = Data.position_offset p in
        Alcotest.(check bool) "fits on canvas" true
          (r0 + Data.patch_side <= Data.canvas_side
          && c0 + Data.patch_side <= Data.canvas_side);
        (r0, c0))
  in
  List.iteri
    (fun i (r1, c1) ->
      List.iteri
        (fun j (r2, c2) ->
          if i < j then
            Alcotest.(check bool) "cells disjoint" true
              (Stdlib.abs (r1 - r2) >= Data.patch_side
              || Stdlib.abs (c1 - c2) >= Data.patch_side))
        cells)
    cells

let test_render_scene_mass () =
  let empty = Data.render_scene [] in
  Alcotest.(check (float 0.)) "empty canvas" 0. (Tensor.sum empty);
  let one = Data.render_scene [ (8, 0) ] in
  let two = Data.render_scene [ (8, 0); (8, 3) ] in
  Alcotest.(check bool) "mass grows with objects" true
    (Tensor.sum two > Tensor.sum one && Tensor.sum one > 4.);
  Alcotest.(check bool) "in [0,1]" true
    (Tensor.max_elt two <= 1. && Tensor.min_elt two >= 0.)

let test_air_batch_counts () =
  let _, counts = Data.air_batch k0 300 in
  Array.iter
    (fun c ->
      if c < 0 || c > Data.max_objects then Alcotest.failf "count %d" c)
    counts;
  (* Counts are roughly uniform. *)
  let freq c =
    float_of_int (Array.length (Array.of_list (List.filter (( = ) c) (Array.to_list counts))))
    /. 300.
  in
  List.iter
    (fun c ->
      let f = freq c in
      if f < 0.2 || f > 0.5 then
        Alcotest.failf "count %d frequency %.2f not near uniform" c f)
    [ 0; 1; 2 ]

let test_quadrants () =
  let img = Data.digit_glyph 5 in
  let q = Data.quadrant img 2 in
  Alcotest.(check (array int)) "6x6" [| 6; 6 |] (Tensor.shape q);
  let rest = Data.without_quadrant img 2 in
  Alcotest.(check int) "complement size" 108 (Tensor.size rest);
  (* Pixel mass is partitioned. *)
  Alcotest.(check (float 1e-9)) "partition" (Tensor.sum img)
    (Tensor.sum q +. Tensor.sum rest)

let test_regression_data () =
  let data = Data.regression_data k0 500 in
  let a, ba, br, bar = Data.regression_truth in
  (* Least-squares on noiseless features should sit near the truth:
     check the subgroup means differ in the documented direction. *)
  let mean_gdp pred =
    let xs = List.filter pred (Array.to_list data) in
    List.fold_left (fun acc d -> acc +. d.Data.log_gdp) 0. xs
    /. float_of_int (List.length xs)
  in
  let africa = mean_gdp (fun d -> d.Data.in_africa) in
  let other = mean_gdp (fun d -> not d.Data.in_africa) in
  Alcotest.(check bool) "bA < 0 visible in data" true (africa < other);
  ignore (a, ba, br, bar);
  Array.iter
    (fun d ->
      if d.Data.ruggedness < 0. || d.Data.ruggedness > 6. then
        Alcotest.failf "ruggedness out of range")
    data

let test_ascii () =
  let s = Data.ascii (Data.digit_glyph 1) in
  Alcotest.(check bool) "contains strokes" true (String.contains s '#');
  Alcotest.(check int) "12 lines" 12
    (List.length (String.split_on_char '\n' (String.trim s)))

let suites =
  [ ( "data",
      [ Alcotest.test_case "glyphs distinct" `Quick test_glyphs_distinct;
        Alcotest.test_case "sprite jitter" `Quick test_sprite_jitter;
        Alcotest.test_case "digit batch" `Quick test_digit_batch;
        Alcotest.test_case "positions disjoint" `Quick
          test_position_offsets_disjoint;
        Alcotest.test_case "render scene" `Quick test_render_scene_mass;
        Alcotest.test_case "air batch counts" `Quick test_air_batch_counts;
        Alcotest.test_case "quadrants" `Quick test_quadrants;
        Alcotest.test_case "regression data" `Quick test_regression_data;
        Alcotest.test_case "ascii" `Quick test_ascii;
        Alcotest.test_case "tables match reference" `Quick
          test_tables_match_reference;
        Alcotest.test_case "pinned digit_batch checksum" `Quick
          test_pinned_checksum;
        Alcotest.test_case "bad digit" `Quick test_bad_digit;
        Alcotest.test_case "empty batches" `Quick test_empty_batches;
        Alcotest.test_case "negative batches" `Quick test_negative_batches ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_digit_batch_bits; prop_sprite_bits; prop_air_batch_bits ] ) ]
