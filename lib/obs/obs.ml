(* Global recorder. All recording runs on the main domain, so plain
   mutable state is safe: the parallel kernel workers never call into
   Obs, and instrumented code executed on worker domains (sharded
   training blocks) runs under [suppress], which turns every hook into
   a no-op via the domain-local flag below. The one cross-domain
   producer, [Parallel], keeps its own atomic counters and is read
   from the reporting layer. *)

type kind =
  | Simulate
  | Density
  | Grad
  | Optim
  | Guard
  | Preflight
  | Step
  | Fault
  | Other

let kind_name = function
  | Simulate -> "simulate"
  | Density -> "density"
  | Grad -> "grad"
  | Optim -> "optim-step"
  | Guard -> "guard"
  | Preflight -> "preflight"
  | Step -> "step"
  | Fault -> "fault"
  | Other -> "other"

let all_kinds =
  [ Simulate; Density; Grad; Optim; Guard; Preflight; Step; Fault; Other ]

let kind_index = function
  | Simulate -> 0
  | Density -> 1
  | Grad -> 2
  | Optim -> 3
  | Guard -> 4
  | Preflight -> 5
  | Step -> 6
  | Fault -> 7
  | Other -> 8

let n_kinds = 9

(* ------------------------------------------------------------------ *)
(* JSON: a writer (events, reports) and a minimal reader (trace-lint,
   round-trip tests). Numbers are emitted with enough digits to
   round-trip doubles; non-finite values become [null] so every line
   stays standard JSON. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let num_to_string f =
    if Float.is_finite f then begin
      (* Shortest representation that still round-trips. *)
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
    end
    else "null"

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          write b v)
        fields;
      Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    write b v;
    Buffer.contents b

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?' (* non-ASCII: placeholder *)
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match float_of_string_opt text with
      | Some f -> Num f
      | None -> fail (Printf.sprintf "bad number %S" text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((key, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
    | exception Stack_overflow ->
      (* Recursive descent: pathological nesting must degrade to a
         parse error, not crash the linter reading a hostile trace. *)
      Error "nesting too deep"

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* State *)

type sink = Null_sink | Console_sink | File_sink of out_channel * string

type event =
  | Span_ev of {
      name : string;
      kind : kind;
      depth : int;
      t : float;
      dur_ms : float;
      alloc_b : float;
    }
  | Msg_ev of { kind : kind; text : string; t : float }

type agg = {
  a_kind : kind;
  mutable a_count : int;
  mutable a_total_s : float;
  mutable a_alloc : float;
}

type hist_state = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;  (* power-of-two buckets, exponent + 33; [0] holds v <= 0 *)
}

type est = { mutable e_n : int; mutable e_mean : float; mutable e_m2 : float }

let live_flag = ref false

(* Domain-local suppression: the recorder's tables are plain Hashtbls
   owned by the coordinating domain, so instrumented code running on a
   worker domain (a sharded training block) or re-running during a
   checkpoint replay must see [live () = false] — both to avoid racing
   the tables and to avoid double-reporting replayed work. The
   instrumentation contract (enabling observability never changes a
   seeded run) makes suppression bit-transparent. *)
let suppressed : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let suppress f =
  let saved = Domain.DLS.get suppressed in
  Domain.DLS.set suppressed true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set suppressed saved) f

let live () = !live_flag && not (Domain.DLS.get suppressed)
let sink = ref Console_sink
let epoch = ref (Unix.gettimeofday ())
let depth = ref 0
let sample_every = Array.make n_kinds 1
let ticks = Array.make n_kinds 0
(* Keyed by (name, kind): one primitive's sampler and density leaf
   share a name but must report as separate phases. *)
let aggs : (string * int, agg) Hashtbl.t = Hashtbl.create 64
let counter_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 64
let gauge_tbl : (string, float ref) Hashtbl.t = Hashtbl.create 64
let hist_tbl : (string, hist_state) Hashtbl.t = Hashtbl.create 64
let est_tbl : (string * string, est) Hashtbl.t = Hashtbl.create 64

let ring_capacity = ref 4096
let ring : event option array ref = ref (Array.make !ring_capacity None)
let ring_pos = ref 0
let ring_count = ref 0

let now () = Unix.gettimeofday ()
let start = now

(* ------------------------------------------------------------------ *)
(* Event emission *)

let event_json = function
  | Span_ev { name; kind; depth; t; dur_ms; alloc_b } ->
    Json.Obj
      [ ("ev", Json.Str "span"); ("name", Json.Str name);
        ("kind", Json.Str (kind_name kind)); ("depth", Json.Num (float_of_int depth));
        ("t", Json.Num t); ("dur_ms", Json.Num dur_ms);
        ("alloc_b", Json.Num alloc_b) ]
  | Msg_ev { kind; text; t } ->
    Json.Obj
      [ ("ev", Json.Str "msg"); ("kind", Json.Str (kind_name kind));
        ("t", Json.Num t); ("text", Json.Str text) ]

let write_line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let ring_push ev =
  let cap = Array.length !ring in
  if cap > 0 then begin
    !ring.(!ring_pos) <- Some ev;
    ring_pos := (!ring_pos + 1) mod cap;
    if !ring_count < cap then incr ring_count
  end

let emit ev =
  ring_push ev;
  match !sink with
  | Null_sink | Console_sink -> ()
  | File_sink (oc, _) -> write_line oc (event_json ev)

(* Sampling admission: every [sample_every.(k)]-th span of a kind
   becomes an event. Aggregates are updated unconditionally. *)
let admit kind =
  let i = kind_index kind in
  let t = ticks.(i) + 1 in
  ticks.(i) <- t;
  t mod sample_every.(i) = 0

(* ------------------------------------------------------------------ *)
(* Spans *)

let agg_for name kind =
  let key = (name, kind_index kind) in
  match Hashtbl.find_opt aggs key with
  | Some a -> a
  | None ->
    let a = { a_kind = kind; a_count = 0; a_total_s = 0.; a_alloc = 0. } in
    Hashtbl.add aggs key a;
    a

let stop ?(alloc = 0.) kind name t0 =
  let t1 = now () in
  let dur = t1 -. t0 in
  let a = agg_for name kind in
  a.a_count <- a.a_count + 1;
  a.a_total_s <- a.a_total_s +. dur;
  a.a_alloc <- a.a_alloc +. alloc;
  if admit kind then
    emit
      (Span_ev
         { name; kind; depth = !depth; t = t0 -. !epoch;
           dur_ms = dur *. 1000.; alloc_b = alloc })

let span kind name f =
  if not (live ()) then f ()
  else begin
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    incr depth;
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        stop ~alloc:(Gc.allocated_bytes () -. a0) kind name t0)
      f
  end

let message kind text =
  match !sink with
  | Console_sink -> Printf.eprintf "%s\n%!" text
  | File_sink (oc, _) ->
    write_line oc (event_json (Msg_ev { kind; text; t = now () -. !epoch }));
    if live () then ring_push (Msg_ev { kind; text; t = now () -. !epoch })
  | Null_sink -> ()

(* ------------------------------------------------------------------ *)
(* Metrics *)

let incr ?(by = 1) name =
  if live () then begin
    match Hashtbl.find_opt counter_tbl name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add counter_tbl name (ref by)
  end

let gauge name v =
  if live () then begin
    match Hashtbl.find_opt gauge_tbl name with
    | Some r -> r := v
    | None -> Hashtbl.add gauge_tbl name (ref v)
  end

let bucket_of v =
  if v <= 0. then 0
  else begin
    let _, e = Float.frexp v in
    let i = e + 33 in
    if i < 1 then 1 else if i > 63 then 63 else i
  end

let hist name v =
  if live () then begin
    let h =
      match Hashtbl.find_opt hist_tbl name with
      | Some h -> h
      | None ->
        let h =
          { h_count = 0; h_sum = 0.; h_min = Float.infinity;
            h_max = Float.neg_infinity; h_buckets = Array.make 64 0 }
        in
        Hashtbl.add hist_tbl name h;
        h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1
  end

let counter_value name =
  match Hashtbl.find_opt counter_tbl name with Some r -> !r | None -> 0

let gauge_value name =
  match Hashtbl.find_opt gauge_tbl name with Some r -> !r | None -> Float.nan

(* ------------------------------------------------------------------ *)
(* Estimator statistics (Welford) *)

let estimator ~address ~strategy x =
  if live () then begin
    let key = (address, strategy) in
    let e =
      match Hashtbl.find_opt est_tbl key with
      | Some e -> e
      | None ->
        let e = { e_n = 0; e_mean = 0.; e_m2 = 0. } in
        Hashtbl.add est_tbl key e;
        e
    in
    e.e_n <- e.e_n + 1;
    let delta = x -. e.e_mean in
    e.e_mean <- e.e_mean +. (delta /. float_of_int e.e_n);
    e.e_m2 <- e.e_m2 +. (delta *. (x -. e.e_mean))
  end

(* ------------------------------------------------------------------ *)
(* Reports *)

type span_row = {
  sr_name : string;
  sr_kind : kind;
  sr_count : int;
  sr_total_ms : float;
  sr_mean_ms : float;
  sr_alloc_mb : float;
}

let span_rows () =
  Hashtbl.fold
    (fun (name, _) a acc ->
      { sr_name = name; sr_kind = a.a_kind; sr_count = a.a_count;
        sr_total_ms = a.a_total_s *. 1000.;
        sr_mean_ms =
          (if a.a_count = 0 then 0.
           else a.a_total_s *. 1000. /. float_of_int a.a_count);
        sr_alloc_mb = a.a_alloc /. 1048576. }
      :: acc)
    aggs []
  |> List.sort (fun a b -> Float.compare b.sr_total_ms a.sr_total_ms)

type est_row = {
  er_address : string;
  er_strategy : string;
  er_count : int;
  er_mean : float;
  er_variance : float;
  er_snr : float;
}

let estimator_rows () =
  Hashtbl.fold
    (fun (address, strategy) e acc ->
      let variance =
        if e.e_n < 2 then 0. else e.e_m2 /. float_of_int (e.e_n - 1)
      in
      let std = Float.sqrt variance in
      let snr =
        if std > 0. then Float.abs e.e_mean /. std
        else if e.e_mean <> 0. then Float.infinity
        else 0.
      in
      { er_address = address; er_strategy = strategy; er_count = e.e_n;
        er_mean = e.e_mean; er_variance = variance; er_snr = snr }
      :: acc)
    est_tbl []
  |> List.sort (fun a b ->
         match Float.compare b.er_variance a.er_variance with
         | 0 -> Stdlib.compare b.er_count a.er_count
         | c -> c)

type hist_row = {
  hr_name : string;
  hr_count : int;
  hr_mean : float;
  hr_min : float;
  hr_max : float;
}

let counters () =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counter_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges () =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) gauge_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_rows () =
  Hashtbl.fold
    (fun name h acc ->
      { hr_name = name; hr_count = h.h_count;
        hr_mean =
          (if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count);
        hr_min = h.h_min; hr_max = h.h_max }
      :: acc)
    hist_tbl []
  |> List.sort (fun a b -> String.compare a.hr_name b.hr_name)

let report_human ppf =
  let spans = span_rows () in
  if spans <> [] then begin
    Format.fprintf ppf "spans (aggregated, by total time)@.";
    Format.fprintf ppf "  %-26s %-10s %8s %12s %10s %10s@." "name" "kind"
      "count" "total_ms" "mean_ms" "alloc_mb";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-26s %-10s %8d %12.3f %10.4f %10.2f@."
          r.sr_name (kind_name r.sr_kind) r.sr_count r.sr_total_ms r.sr_mean_ms
          r.sr_alloc_mb)
      spans
  end;
  let cs = counters () in
  if cs <> [] then begin
    Format.fprintf ppf "counters@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %10d@." name v) cs
  end;
  let gs = gauges () in
  if gs <> [] then begin
    Format.fprintf ppf "gauges@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %10g@." name v) gs
  end;
  let hs = hist_rows () in
  if hs <> [] then begin
    Format.fprintf ppf "histograms@.";
    Format.fprintf ppf "  %-26s %8s %12s %12s %12s@." "name" "count" "mean"
      "min" "max";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-26s %8d %12.4g %12.4g %12.4g@." r.hr_name
          r.hr_count r.hr_mean r.hr_min r.hr_max)
      hs
  end;
  let es = estimator_rows () in
  if es <> [] then begin
    Format.fprintf ppf
      "estimator sites (score-coefficient statistics, noisiest first)@.";
    Format.fprintf ppf "  %-22s %-20s %8s %12s %12s %10s@." "address"
      "strategy" "count" "mean" "variance" "snr";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-22s %-20s %8d %12.4g %12.4g %10.3g@."
          r.er_address r.er_strategy r.er_count r.er_mean r.er_variance
          r.er_snr)
      es
  end

let report_json ?(meta = []) () =
  let spans =
    Json.Arr
      (List.map
         (fun r ->
           Json.Obj
             [ ("name", Json.Str r.sr_name);
               ("kind", Json.Str (kind_name r.sr_kind));
               ("count", Json.Num (float_of_int r.sr_count));
               ("total_ms", Json.Num r.sr_total_ms);
               ("mean_ms", Json.Num r.sr_mean_ms);
               ("alloc_mb", Json.Num r.sr_alloc_mb) ])
         (span_rows ()))
  in
  let counters_j =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (counters ()))
  in
  let gauges_j = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (gauges ())) in
  let hists =
    Json.Arr
      (List.map
         (fun r ->
           Json.Obj
             [ ("name", Json.Str r.hr_name);
               ("count", Json.Num (float_of_int r.hr_count));
               ("mean", Json.Num r.hr_mean); ("min", Json.Num r.hr_min);
               ("max", Json.Num r.hr_max) ])
         (hist_rows ()))
  in
  let ests =
    Json.Arr
      (List.map
         (fun r ->
           Json.Obj
             [ ("address", Json.Str r.er_address);
               ("strategy", Json.Str r.er_strategy);
               ("count", Json.Num (float_of_int r.er_count));
               ("mean", Json.Num r.er_mean);
               ("variance", Json.Num r.er_variance);
               ("snr", Json.Num r.er_snr) ])
         (estimator_rows ()))
  in
  Json.to_string
    (Json.Obj
       (("schema_version", Json.Num 1.)
        :: List.map (fun (k, v) -> (k, Json.Str v)) meta
        @ [ ("spans", spans); ("counters", counters_j);
            ("gauges", gauges_j); ("histograms", hists);
            ("estimators", ests) ]))

let flush () =
  match !sink with
  | Null_sink | Console_sink -> ()
  | File_sink (oc, _) ->
    List.iter
      (fun (name, v) ->
        write_line oc
          (Json.Obj
             [ ("ev", Json.Str "counter"); ("name", Json.Str name);
               ("value", Json.Num (float_of_int v)) ]))
      (counters ());
    List.iter
      (fun (name, v) ->
        write_line oc
          (Json.Obj
             [ ("ev", Json.Str "gauge"); ("name", Json.Str name);
               ("value", Json.Num v) ]))
      (gauges ());
    List.iter
      (fun r ->
        write_line oc
          (Json.Obj
             [ ("ev", Json.Str "hist"); ("name", Json.Str r.hr_name);
               ("count", Json.Num (float_of_int r.hr_count));
               ("mean", Json.Num r.hr_mean); ("min", Json.Num r.hr_min);
               ("max", Json.Num r.hr_max) ]))
      (hist_rows ());
    List.iter
      (fun r ->
        write_line oc
          (Json.Obj
             [ ("ev", Json.Str "estimator"); ("address", Json.Str r.er_address);
               ("strategy", Json.Str r.er_strategy);
               ("count", Json.Num (float_of_int r.er_count));
               ("mean", Json.Num r.er_mean);
               ("variance", Json.Num r.er_variance);
               ("snr", Json.Num r.er_snr) ]))
      (estimator_rows ());
    Stdlib.flush oc

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let close_file_sink () =
  match !sink with
  | File_sink (oc, _) ->
    (try Stdlib.flush oc with Sys_error _ -> ());
    (try close_out oc with Sys_error _ -> ());
    sink := Console_sink
  | Null_sink | Console_sink -> ()

let reset () =
  Hashtbl.reset aggs;
  Hashtbl.reset counter_tbl;
  Hashtbl.reset gauge_tbl;
  Hashtbl.reset hist_tbl;
  Hashtbl.reset est_tbl;
  Array.fill ticks 0 n_kinds 0;
  ring := Array.make !ring_capacity None;
  ring_pos := 0;
  ring_count := 0;
  depth := 0;
  epoch := now ()

let configure ?enabled ?sink:sink_spec ?ring_capacity:cap ?sample_every:se ()
    =
  (match cap with
  | Some c ->
    let c = if c < 1 then 1 else c in
    ring_capacity := c;
    ring := Array.make c None;
    ring_pos := 0;
    ring_count := 0
  | None -> ());
  (match se with
  | Some entries ->
    List.iter
      (fun (k, every) ->
        sample_every.(kind_index k) <- (if every < 1 then 1 else every))
      entries
  | None -> ());
  (match sink_spec with
  | Some `Null ->
    close_file_sink ();
    sink := Null_sink
  | Some `Console -> close_file_sink ()
  | Some (`File path) ->
    close_file_sink ();
    let oc = open_out path in
    write_line oc
      (Json.Obj
         [ ("ev", Json.Str "meta"); ("schema_version", Json.Num 1.);
           ("t", Json.Num 0.) ]);
    sink := File_sink (oc, path)
  | None -> ());
  match enabled with Some e -> live_flag := e | None -> ()

let shutdown () =
  flush ();
  close_file_sink ();
  live_flag := false

let recent () =
  let cap = Array.length !ring in
  if cap = 0 || !ring_count = 0 then []
  else begin
    let first =
      if !ring_count < cap then 0 else !ring_pos (* oldest surviving slot *)
    in
    List.init !ring_count (fun i ->
        match !ring.((first + i) mod cap) with
        | Some ev -> ev
        | None -> assert false)
  end

(* ------------------------------------------------------------------ *)
(* JSONL validation *)

let validate_jsonl path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    (* A file that does not end in a newline was truncated mid-line —
       a recorder killed between [output_string] and its flush leaves
       exactly this shape. The partial trailing line is skipped (it is
       not schema drift), while a malformed line that IS
       newline-terminated still fails the lint. *)
    let ends_nl = len > 0 && content.[len - 1] = '\n' in
    let lines = String.split_on_char '\n' content in
    let lines =
      if ends_nl then
        match List.rev lines with "" :: r -> List.rev r | _ -> lines
      else lines
    in
    let rec go lineno count = function
      | [] -> Ok count
      | [ last ] when not ends_nl ->
        if String.trim last = "" then Ok count
        else (
          match Json.parse last with
          | Ok _ -> Ok (count + 1)
          | Error _ -> Ok count)
      | line :: rest ->
        if String.trim line = "" then go (lineno + 1) count rest
        else (
          match Json.parse line with
          | Ok _ -> go (lineno + 1) (count + 1) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
    in
    go 1 0 lines
