type t = Real of Ad.t | Bool of bool | Int of int

type smoothness_info = {
  reason : string;
  address : string option;
  strategy : string option;
}

exception Type_error of string
exception Smoothness_error of smoothness_info

let smoothness_message { reason; address; strategy } =
  let at =
    match (address, strategy) with
    | Some a, Some s -> Printf.sprintf " (sampled at address %S with %s)" a s
    | Some a, None -> Printf.sprintf " (sampled at address %S)" a
    | None, Some s -> Printf.sprintf " (sampled with %s)" s
    | None, None -> ""
  in
  reason ^ at

let () =
  Printexc.register_printer (function
    | Smoothness_error info ->
      Some (Printf.sprintf "Value.Smoothness_error: %s" (smoothness_message info))
    | _ -> None)

(* Provenance registry: maps AD node ids of smooth (REPARAM-style)
   samples to the site that produced them, so a later smoothness error
   can name the same address the static analyzer would flag. The table
   is direct-mapped on the id: a registration overwrites whatever held
   its slot, so a lookup for an old enough id misses and the error is
   simply un-attributed. Registering allocates nothing. A hash table
   that kept one heap cell per smooth draw (up to 65536 of them, each
   promoted to the major heap) made the GC's marking work grow with
   the run; on scalar-site training that cost more than the sites'
   arithmetic. *)

let slots = 4096

(* 0 marks an empty slot: taped ids start at 1, untaped ones are
   negative. *)
let origin_ids = Array.make slots 0
let origin_has_address = Array.make slots false
let origin_addresses = Array.make slots ""
let origin_strategies = Array.make slots ""

(* Registrations arrive from worker domains under the sharded training
   driver; a mutex keeps each slot's fields coherent (lookups only
   happen on error paths). *)
let origins_mutex = Mutex.create ()

let register_smooth_origin node ?address ~strategy () =
  let id = Ad.id node in
  let i = id land (slots - 1) in
  Mutex.lock origins_mutex;
  origin_ids.(i) <- id;
  (match address with
  | Some a ->
    origin_has_address.(i) <- true;
    origin_addresses.(i) <- a
  | None -> origin_has_address.(i) <- false);
  origin_strategies.(i) <- strategy;
  Mutex.unlock origins_mutex

let register_origin_value v ?address ~strategy () =
  match v with
  | Real a when not (Ad.is_leaf a) ->
    register_smooth_origin a ?address ~strategy ()
  | Real _ | Bool _ | Int _ -> ()

let smooth_origin node =
  let id = Ad.id node in
  let i = id land (slots - 1) in
  Mutex.lock origins_mutex;
  let r =
    if origin_ids.(i) = id then
      Some
        ( (if origin_has_address.(i) then Some origin_addresses.(i) else None),
          origin_strategies.(i) )
    else None
  in
  Mutex.unlock origins_mutex;
  r

let real x = Real (Ad.scalar x)
let tensor x = Real (Ad.const x)

let to_ad = function
  | Real a -> a
  | Bool _ -> raise (Type_error "expected a real value, got a boolean")
  | Int _ -> raise (Type_error "expected a real value, got an integer")

let to_float v = Tensor.to_scalar (Ad.value (to_ad v))

let to_bool = function
  | Bool b -> b
  | Real _ -> raise (Type_error "expected a boolean, got a real value")
  | Int _ -> raise (Type_error "expected a boolean, got an integer")

let to_int = function
  | Int i -> i
  | Real _ -> raise (Type_error "expected an integer, got a real value")
  | Bool _ -> raise (Type_error "expected an integer, got a boolean")

let to_float_rigid = function
  | Real a when Ad.is_leaf a -> Tensor.to_scalar (Ad.value a)
  | Real a ->
    let address, strategy =
      match smooth_origin a with
      | Some (addr, strat) -> (addr, Some strat)
      | None -> (None, None)
    in
    raise
      (Smoothness_error
         { reason =
             "a smooth (R-typed) sample was used non-smoothly; use a \
              REINFORCE/MVD-annotated primitive or stop_grad";
           address;
           strategy })
  | v -> to_float v

let equal_primal a b =
  match (a, b) with
  | Real x, Real y -> Tensor.equal (Ad.value x) (Ad.value y)
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | _ -> false

let pp ppf = function
  | Real a -> Tensor.pp ppf (Ad.value a)
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i

let to_string v = Format.asprintf "%a" pp v
