let sprite_side = 12
let sprite_dim = sprite_side * sprite_side
let canvas_side = 16
let canvas_dim = canvas_side * canvas_side
let patch_side = 6
let num_positions = 4
let max_objects = 2

(* Seven-segment digit rendering. Segments: a = top, b = top-right,
   c = bottom-right, d = bottom, e = bottom-left, f = top-left,
   g = middle. *)
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

(* Draw the glyph in a 10x6 box centered in the 12x12 sprite, as a flat
   row-major table. *)
let render_glyph d =
  let segs = segments_of_digit d in
  let on seg = List.mem seg segs in
  let top = 1 and left = 3 in
  let h = 10 and w = 6 in
  Array.init sprite_dim (fun i ->
      let r = (i / sprite_side) - top and c = (i mod sprite_side) - left in
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

let glyphs = Array.init 10 render_glyph

(* A patch cell is on when any source pixel of the 2x2 block it covers
   (nearest-neighbour downsample of the 12x12 glyph to 6x6) is on. *)
let patches =
  let f = sprite_side / patch_side in
  Array.map
    (fun g ->
      Array.init (patch_side * patch_side) (fun i ->
          let r = i / patch_side * f and c = i mod patch_side * f in
          let any = ref 0. in
          for dr = 0 to f - 1 do
            for dc = 0 to f - 1 do
              if g.(((r + dr) * sprite_side) + c + dc) > 0.5 then any := 1.
            done
          done;
          !any))
    glyphs

let check_digit d =
  if d < 0 || d > 9 then invalid_arg (Printf.sprintf "Data.digit_glyph: %d" d)

let check_count name n =
  if n < 0 then invalid_arg (Printf.sprintf "Data.%s: negative count %d" name n)

let digit_glyph d =
  check_digit d;
  Tensor.of_array [| sprite_side; sprite_side |] glyphs.(d)

let patch_glyph d =
  check_digit d;
  Tensor.of_array [| patch_side; patch_side |] patches.(d)

(* Write the sprite of [digit] under [key] into [out.(off ..
   off + sprite_dim - 1)]: the glyph shifted by (dr, dc), each pixel
   flipped where its uniform draw falls below [noise]. The draws land in
   the output slots first and are replaced by the pixels they decide. *)
let sprite_into noise key digit out off =
  let k1, rest = Prng.split key in
  let k2, k3 = Prng.split rest in
  let dr = Prng.categorical k1 [| 1.; 1.; 1. |] - 1 in
  let dc = Prng.categorical k2 [| 1.; 1.; 1. |] - 1 in
  let g = glyphs.(digit) in
  Prng.uniform_into k3 out off sprite_dim;
  for r = 0 to sprite_side - 1 do
    let sr = r - dr in
    for c = 0 to sprite_side - 1 do
      let sc = c - dc in
      let x =
        if sr < 0 || sr >= sprite_side || sc < 0 || sc >= sprite_side then 0.
        else g.((sr * sprite_side) + sc)
      in
      let i = off + (r * sprite_side) + c in
      out.(i) <- (if out.(i) < noise then 1. -. x else x)
    done
  done

let default_noise = 0.02

let sprite ?(noise = default_noise) key d =
  check_digit d;
  let out = Array.make sprite_dim 0. in
  sprite_into noise key d out 0;
  Tensor.of_array [| sprite_side; sprite_side |] out

let digit_batch ?(noise = default_noise) key n =
  check_count "digit_batch" n;
  let ks = Prng.split_many key n in
  let labels = Array.map (fun k -> Prng.categorical k (Array.make 10 1.)) ks in
  let out = Array.make (n * sprite_dim) 0. in
  Array.iteri
    (fun i k -> sprite_into noise (Prng.fold_in k 1) labels.(i) out (i * sprite_dim))
    ks;
  (Tensor.of_array [| n; sprite_dim |] out, labels)

let position_offset i =
  if i < 0 || i >= num_positions then
    invalid_arg (Printf.sprintf "Data.position_offset: %d" i);
  let step = canvas_side - patch_side in
  (i / 2 * step, i mod 2 * step)

(* Compose the objects onto the zeroed canvas [out.(off .. off +
   canvas_dim - 1)]. *)
let render_into objs out off =
  List.iter
    (fun (digit, pos) ->
      check_digit digit;
      let patch = patches.(digit) in
      let r0, c0 = position_offset pos in
      for r = 0 to patch_side - 1 do
        for c = 0 to patch_side - 1 do
          let p = patch.((r * patch_side) + c) in
          let i = off + ((r0 + r) * canvas_side) + (c0 + c) in
          (* Probabilistic OR keeps overlaps in [0, 1]. *)
          out.(i) <- 1. -. ((1. -. out.(i)) *. (1. -. p))
        done
      done)
    objs

let render_scene objs =
  let canvas = Array.make canvas_dim 0. in
  render_into objs canvas 0;
  Tensor.of_array [| canvas_side; canvas_side |] canvas

(* Write a random scene into [out.(off .. off + canvas_dim - 1)] and
   return its object count; [flips] is a [canvas_dim] scratch buffer for
   the pixel-flip draws. *)
let scene_into key flips out off =
  let k1, rest = Prng.split key in
  let k2, k3 = Prng.split rest in
  let count = Prng.categorical k1 (Array.make (max_objects + 1) 1.) in
  let positions = Prng.permutation k2 num_positions in
  let objs =
    List.init count (fun i ->
        let digit = Prng.categorical (Prng.fold_in k3 i) (Array.make 10 1.) in
        (digit, positions.(i)))
  in
  render_into objs out off;
  Prng.uniform_into (Prng.fold_in k3 99) flips 0 canvas_dim;
  for i = 0 to canvas_dim - 1 do
    let x = out.(off + i) in
    out.(off + i) <- (if flips.(i) < 0.01 then 1. -. x else x)
  done;
  count

let air_scene key =
  let out = Array.make canvas_dim 0. in
  let count = scene_into key (Array.make canvas_dim 0.) out 0 in
  (Tensor.of_array [| canvas_dim |] out, count)

let air_batch key n =
  check_count "air_batch" n;
  let flips = Array.make canvas_dim 0. in
  let out = Array.make (n * canvas_dim) 0. in
  let counts =
    Array.mapi
      (fun i k -> scene_into k flips out (i * canvas_dim))
      (Prng.split_many key n)
  in
  (Tensor.of_array [| n; canvas_dim |] out, counts)

let as_square img =
  match Tensor.rank img with
  | 2 -> img
  | 1 ->
    let n = Tensor.size img in
    let side = int_of_float (Float.round (Float.sqrt (float_of_int n))) in
    Tensor.reshape [| side; side |] img
  | _ -> invalid_arg "Data: expected a rank-1 or rank-2 image"

let quadrant img q =
  let img = as_square img in
  let side = (Tensor.shape img).(0) in
  let half = side / 2 in
  let r0 = q / 2 * half and c0 = q mod 2 * half in
  Tensor.init [| half; half |] (fun ix ->
      Tensor.get img [| r0 + ix.(0); c0 + ix.(1) |])

let without_quadrant img q =
  let img = as_square img in
  let side = (Tensor.shape img).(0) in
  let half = side / 2 in
  let r0 = q / 2 * half and c0 = q mod 2 * half in
  let kept = ref [] in
  for r = side - 1 downto 0 do
    for c = side - 1 downto 0 do
      if not (r >= r0 && r < r0 + half && c >= c0 && c < c0 + half) then
        kept := Tensor.get img [| r; c |] :: !kept
    done
  done;
  Tensor.of_list1 !kept

type regression_datum = { ruggedness : float; in_africa : bool; log_gdp : float }

let regression_truth = (9., -1.8, -0.2, 0.35)

let regression_data key n =
  let a, ba, br, bar = regression_truth in
  Array.map
    (fun k ->
      let k1, rest = Prng.split k in
      let k2, k3 = Prng.split rest in
      let ruggedness = Prng.uniform_range k1 0. 6. in
      let in_africa = Prng.bernoulli k2 0.4 in
      let c = if in_africa then 1. else 0. in
      let mean = a +. (ba *. c) +. (br *. ruggedness) +. (bar *. c *. ruggedness) in
      { ruggedness; in_africa; log_gdp = Prng.normal_mean_std k3 mean 0.5 })
    (Prng.split_many key n)

let ascii img =
  let img = as_square img in
  let side = (Tensor.shape img).(0) in
  let buf = Buffer.create (side * (side + 1)) in
  for r = 0 to side - 1 do
    for c = 0 to side - 1 do
      let x = Tensor.get img [| r; c |] in
      Buffer.add_char buf
        (if x > 0.75 then '#' else if x > 0.35 then '+' else '.')
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
