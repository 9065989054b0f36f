(* Staging analysis of generative programs (see compile.mli).

   The structure-discovery walk is Check.trail — the same abstract
   interpretation the preflight analyzer runs, so one traversal serves
   both diagnostics and plan construction. Compilation itself is pure
   bookkeeping over the recorded trail: intern addresses, pre-make the
   plate lowering decisions, and refuse anything whose runtime shape the
   walk could not pin down. *)

type refusal = {
  r_code : string;
  r_address : string option;
  r_reason : string;
}

type result = Compiled of Gen.Plan.t | Refused of refusal

exception Refuse of string option * string

let refuse ?address fmt =
  Printf.ksprintf (fun msg -> raise (Refuse (address, msg))) fmt

(* Primitives whose log-density evaluates through a fused kernel (one
   pass over the data instead of a composed softplus/mul/add chain).
   Purely descriptive: the fusion lives in lib/dist. *)
let fused_density = function
  | "bernoulli_logits_vector" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Trail -> plan steps                                                 *)

let step_of_trail (ts : Check.trail_step) : Gen.Plan.step =
  match ts with
  | Check.Trail_sample { t_addr; t_dist; t_strategy; t_reentrant; t_shape; _ }
    ->
    if t_reentrant then
      refuse ~address:t_addr
        "sample site %S uses strategy %s, which re-runs its continuation at \
         runtime; the program is not straight-line"
        t_addr t_strategy;
    { Gen.Plan.st_kind = Gen.Plan.Sample_site;
      st_addr = t_addr;
      st_slot = 0;
      st_dist = t_dist;
      st_strategy = t_strategy;
      st_n = 1;
      st_shape = t_shape;
      st_fused = false }
  | Check.Trail_observe { t_dist; t_shape; t_param_shape = _ } ->
    { st_kind = Gen.Plan.Observe_site;
      st_addr = t_dist;
      st_slot = -1;
      st_dist = t_dist;
      st_strategy = "-";
      st_n = 1;
      st_shape = t_shape;
      st_fused = fused_density t_dist }
  | Check.Trail_plate
      { t_n; t_batched; t_body_addrs; t_body_reentrant; t_shape; t_dist;
        t_strategy } -> begin
    match t_batched with
    | Some addr ->
      { st_kind = Gen.Plan.Plate_batched;
        st_addr = addr;
        st_slot = 0;
        st_dist = Option.value t_dist ~default:"?";
        st_strategy = Option.value t_strategy ~default:"?";
        st_n = t_n;
        st_shape = t_shape;
        st_fused = fused_density (Option.value t_dist ~default:"") }
    | None ->
      (* Sequential fallback: the interpreter loop runs the body per
         instance. A re-entrant body (ENUM/MVD inside the plate) re-runs
         the fallback's continuation, so the program is not
         straight-line even behind the fallback. *)
      if t_body_reentrant then
        refuse
          "a sequential-fallback plate body contains a site that re-runs its \
           continuation (ENUM/MVD or sub-inference); the program is not \
           straight-line";
      let label =
        match t_body_addrs with a :: _ -> a | [] -> "<plate>"
      in
      { st_kind = Gen.Plan.Plate_seq;
        st_addr = label;
        st_slot = -1;
        st_dist = Option.value t_dist ~default:"-";
        st_strategy = Option.value t_strategy ~default:"-";
        st_n = t_n;
        st_shape = t_shape;
        st_fused = false }
  end
  | Check.Trail_marginal { t_keep = _ } ->
    refuse
      "the program contains [marginal], whose density runs a nested \
       importance-sampling loop; it cannot be staged"
  | Check.Trail_normalize ->
    refuse
      "the program contains [normalize], which runs nested inference; it \
       cannot be staged"

(* ------------------------------------------------------------------ *)
(* Address-uniqueness analysis                                         *)

(* A plan's slot table requires every address to be globally unique —
   including the suffixed [addr[i]] families a sequential-fallback
   plate binds at runtime. *)

let suffixed addr i = Printf.sprintf "%s[%d]" addr i

(* [base [k]] split of an address, when it ends in an integer suffix. *)
let bracket_suffix addr =
  let n = String.length addr in
  if n < 3 || addr.[n - 1] <> ']' then None
  else
    match String.rindex_opt addr '[' with
    | None -> None
    | Some l ->
      if l = 0 || l + 1 >= n - 1 then None
      else
        let digits = String.sub addr (l + 1) (n - l - 2) in
        (match int_of_string_opt digits with
        | Some k when k >= 0 -> Some (String.sub addr 0 l, k)
        | _ -> None)

let check_addresses (steps : Gen.Plan.step list)
    (seq_plates : (int * string list) list) =
  let seen = Hashtbl.create 32 in
  let add addr =
    if Hashtbl.mem seen addr then
      refuse ~address:addr
        "address %S is bound by more than one site (directly or through a \
         sequential plate's [i] suffixes); the plan's slot table requires \
         globally unique addresses"
        addr;
    Hashtbl.add seen addr ()
  in
  List.iter
    (fun (s : Gen.Plan.step) ->
      match s.Gen.Plan.st_kind with
      | Gen.Plan.Sample_site | Gen.Plan.Plate_batched -> add s.Gen.Plan.st_addr
      | Gen.Plan.Plate_seq | Gen.Plan.Observe_site -> ())
    steps;
  List.iter
    (fun (n, body_addrs) ->
      List.iter (fun a -> for i = 0 to n - 1 do add (suffixed a i) done)
        body_addrs)
    seq_plates;
  (* Conservative aliasing guard: the walk records a plate body's
     may-bind addresses, but a body could in principle bind a different
     address at runtime. If any planned address outside a fallback
     plate's own suffixed family already ends in a plausible [k] suffix,
     a runtime drift could silently alias it, so refuse outright. *)
  let max_n =
    List.fold_left (fun acc (n, _) -> max acc n) 0 seq_plates
  in
  if max_n > 0 then
    List.iter
      (fun (s : Gen.Plan.step) ->
        match s.Gen.Plan.st_kind with
        | Gen.Plan.Sample_site | Gen.Plan.Plate_batched -> begin
          match bracket_suffix s.Gen.Plan.st_addr with
          | Some (_, k) when k < max_n ->
            refuse ~address:s.Gen.Plan.st_addr
              "address %S ends in an index suffix that a sequential-fallback \
               plate in the same program could alias; rename the site or the \
               plate body"
              s.Gen.Plan.st_addr
          | _ -> ()
        end
        | Gen.Plan.Plate_seq | Gen.Plan.Observe_site -> ())
      steps

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

let trails_equal (a : Check.trail_step list) (b : Check.trail_step list) =
  a = b

let compile ?fuel ?max_width ~id packed =
  try
    let tr = Check.trail ?fuel ?max_width packed in
    let report = tr.Check.trail_report in
    (match Check.errors report with
    | [] -> ()
    | d :: _ ->
      refuse ?address:d.Check.address
        "preflight reports %s: %s; fix the diagnostic before staging"
        d.Check.code d.Check.message);
    if report.Check.truncated then
      refuse
        "preflight exploration was truncated (PV401); the discovered \
         structure may be incomplete, so the program cannot be staged";
    let canonical =
      match tr.Check.trails with
      | [] -> refuse "preflight discovered no complete execution path"
      | t :: rest ->
        if not (List.for_all (trails_equal t) rest) then
          refuse
            "the program's site structure differs across execution paths \
             (data-dependent control flow); only programs with static \
             structure can be staged";
        t
    in
    let steps = List.map step_of_trail canonical in
    let seq_plates =
      List.filter_map
        (function
          | Check.Trail_plate { t_batched = None; t_n; t_body_addrs; _ } ->
            Some (t_n, t_body_addrs)
          | _ -> None)
        canonical
    in
    check_addresses steps seq_plates;
    match Gen.Plan.make ~id steps with
    | plan -> Compiled plan
    | exception Invalid_argument msg -> refuse "%s" msg
  with Refuse (address, reason) ->
    Refused { r_code = "PV501"; r_address = address; r_reason = reason }

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)

let cache : (string, result) Hashtbl.t = Hashtbl.create 16

(* [plan_for] may be called from any domain or thread; a mutex keeps
   concurrent first-compilations of the same id from corrupting the
   table. Staging inside the lock is fine — it happens once per
   program id. *)
let cache_mutex = Mutex.create ()

let with_cache_lock f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

let plan_for ?fuel ?max_width ~id packed =
  with_cache_lock (fun () ->
      match Hashtbl.find_opt cache id with
      | Some r ->
        Obs.incr "compile/plan_hit";
        r
      | None ->
        Obs.incr "compile/plan_miss";
        let r =
          Obs.span Obs.Preflight ("compile/" ^ id) (fun () ->
              compile ?fuel ?max_width ~id packed)
        in
        (match r with
        | Refused { r_reason; _ } ->
          Obs.incr "compile/refused";
          Obs.message Obs.Preflight
            (Printf.sprintf "compile/%s refused (PV501): %s" id r_reason)
        | Compiled _ -> ());
        Hashtbl.replace cache id r;
        r)

let invalidate id = with_cache_lock (fun () -> Hashtbl.remove cache id)
let reset_cache () = with_cache_lock (fun () -> Hashtbl.reset cache)

let cached_ids () =
  with_cache_lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) cache [] |> List.sort compare)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let sanitize_var addr =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    addr

(* The plan's straight-line fragment in the Yolo ANF IR, where
   expressible: scalar REPARAM normal sites are exactly the IR's
   [Sample_normal]. Sites outside the IR's little language stay in the
   plan's own step encoding (the "interpreter fallback per site"). *)
let yolo_sketch plan =
  let sites =
    Array.to_list (Gen.Plan.steps plan)
    |> List.filter_map (fun (s : Gen.Plan.step) ->
           match s.Gen.Plan.st_kind with
           | Gen.Plan.Sample_site
             when String.equal s.Gen.Plan.st_dist "normal"
                  && String.equal s.Gen.Plan.st_strategy "REPARAM"
                  && (match s.Gen.Plan.st_shape with
                     | Some [||] | None -> true
                     | Some _ -> false) ->
             Some (sanitize_var s.Gen.Plan.st_addr)
           | _ -> None)
  in
  match sites with
  | [] -> None
  | _ ->
    let params =
      List.concat_map (fun v -> [ "mu_" ^ v; "sigma_" ^ v ]) sites
    in
    let body =
      List.map
        (fun v ->
          Yolo.Sample_normal (v, Yolo.Var ("mu_" ^ v), Yolo.Var ("sigma_" ^ v)))
        sites
    in
    let loss =
      match sites with
      | [ v ] -> Yolo.Var v
      | v :: rest ->
        List.fold_left (fun e v' -> Yolo.Add (e, Yolo.Var v')) (Yolo.Var v)
          rest
      | [] -> assert false
    in
    Some
      { Yolo.params;
        body = body @ [ Yolo.Let ("loss", loss) ];
        result = "loss" }

let shape_str = function
  | None -> "?"
  | Some [||] -> "scalar"
  | Some dims ->
    "["
    ^ String.concat "," (Array.to_list (Array.map string_of_int dims))
    ^ "]"

let kind_str = function
  | Gen.Plan.Sample_site -> "sample"
  | Gen.Plan.Observe_site -> "observe"
  | Gen.Plan.Plate_batched -> "plate/batched"
  | Gen.Plan.Plate_seq -> "plate/seq-fallback"

let describe ~id result =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match result with
  | Refused { r_code; r_address; r_reason } ->
    pr "%s: refused (%s)%s\n  %s\n" id r_code
      (match r_address with Some a -> Printf.sprintf " at %S" a | None -> "")
      r_reason
  | Compiled plan ->
    let steps = Gen.Plan.steps plan in
    let slots = Gen.Plan.slots plan in
    pr "%s: compiled plan %S — %d steps, %d slots, %d sequential fallback%s\n"
      id (Gen.Plan.id plan) (Array.length steps) (Array.length slots)
      (Gen.Plan.seq_fallbacks plan)
      (if Gen.Plan.seq_fallbacks plan = 1 then "" else "s");
    pr "  slot table:\n";
    Array.iteri (fun i a -> pr "    [%d] %s\n" i a) slots;
    pr "  steps:\n";
    Array.iteri
      (fun i (s : Gen.Plan.step) ->
        pr "    %2d %-18s %-16s %s %s shape=%s%s%s\n" i (kind_str s.st_kind)
          s.st_addr s.st_dist s.st_strategy (shape_str s.st_shape)
          (if s.st_n <> 1 then Printf.sprintf " n=%d" s.st_n else "")
          (if s.st_fused then " [fused kernel]" else ""))
      steps;
    (match yolo_sketch plan with
    | None -> ()
    | Some prog ->
      pr "  yolo fragment (scalar REPARAM normal sites):\n";
      let body = Format.asprintf "%a" Yolo.pp_program prog in
      String.split_on_char '\n' body
      |> List.iter (fun line ->
             if String.length line > 0 then pr "    %s\n" line)));
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ~id result =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "{\"id\":\"%s\"" (json_escape id);
  (match result with
  | Refused { r_code; r_address; r_reason } ->
    pr ",\"compiled\":false,\"code\":\"%s\"" (json_escape r_code);
    (match r_address with
    | Some a -> pr ",\"address\":\"%s\"" (json_escape a)
    | None -> ());
    pr ",\"reason\":\"%s\"" (json_escape r_reason)
  | Compiled plan ->
    pr ",\"compiled\":true,\"seq_fallbacks\":%d" (Gen.Plan.seq_fallbacks plan);
    pr ",\"slots\":[%s]"
      (String.concat ","
         (Array.to_list
            (Array.map
               (fun a -> Printf.sprintf "\"%s\"" (json_escape a))
               (Gen.Plan.slots plan))));
    pr ",\"steps\":[";
    Array.iteri
      (fun i (s : Gen.Plan.step) ->
        if i > 0 then pr ",";
        pr
          "{\"kind\":\"%s\",\"addr\":\"%s\",\"slot\":%d,\"dist\":\"%s\",\
           \"strategy\":\"%s\",\"n\":%d,\"fused\":%b"
          (json_escape (kind_str s.st_kind))
          (json_escape s.st_addr) s.st_slot (json_escape s.st_dist)
          (json_escape s.st_strategy)
          s.st_n s.st_fused;
        (match s.st_shape with
        | None -> ()
        | Some dims ->
          pr ",\"shape\":[%s]"
            (String.concat ","
               (Array.to_list (Array.map string_of_int dims))));
        pr "}")
      (Gen.Plan.steps plan);
    pr "]";
    match yolo_sketch plan with
    | None -> ()
    | Some prog ->
      pr ",\"yolo\":\"%s\""
        (json_escape (Format.asprintf "%a" Yolo.pp_program prog)));
  pr "}";
  Buffer.contents buf
