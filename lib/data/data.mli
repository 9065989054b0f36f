(** Synthetic datasets standing in for the paper's experimental data.

    The paper trains on MNIST (VAE family) and on multi-MNIST canvases
    (AIR). This container has no MNIST, so we substitute procedurally
    rendered seven-segment digit sprites with random jitter and pixel
    noise — binary images exercising the same code paths (Bernoulli
    pixel likelihoods, discrete object counts, continuous pose /
    style latents). All generators are deterministic in the PRNG key.

    Stream guarantee: for every key, size and noise rate, the generators
    return the same bits as the reference pipeline they replaced (render
    the glyph, shift it, draw a [Prng.uniform_tensor] flip mask, stack
    the rows); the test suite keeps that pipeline as its oracle and pins
    [digit_batch (Prng.key 0) 256] with a checksum. Glyphs and patches
    are rendered once into flat tables, and each sprite or scene is
    written straight into the batch buffer. *)

val sprite_side : int
(** Sprite height/width (12). *)

val sprite_dim : int
(** Flattened sprite size (144). *)

val canvas_side : int
(** AIR canvas height/width (16). *)

val canvas_dim : int
(** Flattened canvas size (256). *)

val patch_side : int
(** AIR object patch height/width (6). *)

val num_positions : int
(** Number of grid positions for AIR objects (4, a 2x2 grid of non-overlapping cells). *)

val max_objects : int
(** Maximum object count in an AIR scene (2). *)

(** {1 Digit sprites} *)

val digit_glyph : int -> Tensor.t
(** The clean [sprite_side] x [sprite_side] binary glyph for a digit
    class in [0, 9] (seven-segment rendering).
    @raise Invalid_argument ["Data.digit_glyph: d"] outside [0, 9]. *)

val sprite : ?noise:float -> Prng.key -> int -> Tensor.t
(** A jittered sprite: the glyph shifted by up to one pixel in each
    direction with independent pixel flips (default rate 0.02).
    @raise Invalid_argument as {!digit_glyph}. *)

val digit_batch :
  ?noise:float -> Prng.key -> int -> Tensor.t * int array
(** [digit_batch key n]: a batch of flattened sprites (shape
    [n x sprite_dim]) with their digit labels. Row [i] is
    [sprite ?noise (Prng.fold_in k 1) l] with [k] the [i]-th key of
    [Prng.split_many key n] and [l] its label. [n = 0] gives a
    [0 x sprite_dim] tensor and no labels.
    @raise Invalid_argument when [n < 0]. *)

(** {1 AIR scenes} *)

val patch_glyph : int -> Tensor.t
(** The digit glyph downsampled to [patch_side] x [patch_side]. *)

val position_offset : int -> int * int
(** Row/column offset of one of the {!num_positions} grid cells on the
    canvas. *)

val render_scene : (int * int) list -> Tensor.t
(** Render (digit class, position index) objects onto a binary canvas
    using probabilistic-OR composition. *)

val air_scene : Prng.key -> Tensor.t * int
(** A random scene: a count in [0, max_objects], distinct positions,
    random digit classes, light pixel noise. Returns the flattened
    canvas and the true object count. *)

val air_batch : Prng.key -> int -> Tensor.t * int array
(** [air_batch key n]: flattened canvases (shape [n x canvas_dim]) with
    true counts; row [i] is [air_scene] under the [i]-th key of
    [Prng.split_many key n]. [n = 0] gives a [0 x canvas_dim] tensor.
    @raise Invalid_argument when [n < 0]. *)

(** {1 Quadrants (conditional VAE)} *)

val quadrant : Tensor.t -> int -> Tensor.t
(** [quadrant img q]: the [q]-th 6x6 quadrant (0 = top-left, 1 =
    top-right, 2 = bottom-left, 3 = bottom-right) of a flattened or
    square sprite. *)

val without_quadrant : Tensor.t -> int -> Tensor.t
(** The flattened complement (108 pixels) of a quadrant, in row-major
    order. *)

(** {1 Bayesian linear regression (Appendix D.2)} *)

type regression_datum = { ruggedness : float; in_africa : bool; log_gdp : float }

val regression_truth : float * float * float * float
(** The generating coefficients [(a, b_africa, b_rugged, b_interact)]. *)

val regression_data : Prng.key -> int -> regression_datum array
(** Synthetic terrain-ruggedness regression data from the documented
    coefficients plus observation noise 0.5. *)

(** {1 Rendering} *)

val ascii : Tensor.t -> string
(** Crude ASCII-art rendering of a square (or flattenable-square) binary
    image, for terminal demos. *)
