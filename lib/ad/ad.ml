type t = {
  id : int;
  v : Tensor.t;
  mutable g : Tensor.t option;
  (* Whether [g] is a buffer this node owns exclusively (safe to mutate
     in place). The first delta is shared, not copied — most nodes only
     ever receive one — and a private buffer is made lazily when a
     second delta arrives. *)
  mutable g_owned : bool;
  parents : (t * (Tensor.t -> Tensor.t)) array;
  (* A rematerialization thunk for checkpoint-barrier nodes: replaying
     it rebuilds the discarded tape segment behind this node (see
     {!checkpoint}). [None] for ordinary nodes; the [parents] of a
     remat node are the segment's boundary nodes (for topological
     ordering only — their vjps are never called, the replayed
     segment's local sweep accumulates into them directly). *)
  remat : (unit -> t) option;
}

(* Counters are atomic: the sharded training driver runs one forward +
   backward per minibatch shard on worker domains concurrently, and
   node ids must stay process-unique (they key the backward visit set
   and provenance side tables). *)
let counter = Atomic.make 0

(* Live-tape accounting. [live_nodes] is created-minus-retired;
   [peak_live] tracks its high-water mark. Nodes retire when a
   checkpoint barrier discards its segment, when a replayed segment's
   local sweep completes, and when [backward] has consumed a tape —
   so with remat barriers the peak stops scaling with the full tape
   length. Both are process-wide; reset them from a quiescent point
   (between steps) to measure one step's peak. *)
let live_nodes = Atomic.make 0
let peak_live = Atomic.make 0
let remat_replay_total = Atomic.make 0

let track_new () =
  let l = Atomic.fetch_and_add live_nodes 1 + 1 in
  let rec bump () =
    let p = Atomic.get peak_live in
    if l > p && not (Atomic.compare_and_set peak_live p l) then bump ()
  in
  bump ()

let retire n = if n > 0 then ignore (Atomic.fetch_and_add live_nodes (-n))

(* Per-domain created/retired tallies, used to count how many records a
   checkpoint construction or replay produced on THIS domain (the
   atomic counter interleaves across domains, so a global delta would
   over-count under sharding). *)
type domain_tally = { mutable created : int; mutable retired : int }

let tally : domain_tally Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { created = 0; retired = 0 })

let live_node_count () = Atomic.get live_nodes
let peak_live_nodes () = Atomic.get peak_live
let remat_replays () = Atomic.get remat_replay_total

let reset_live_stats () =
  Atomic.set live_nodes 0;
  Atomic.set peak_live 0

(* Rematerialization state, domain-local: [remat_depth] keeps nested
   checkpoints from resetting the segment pool while an enclosing
   segment's tensors are still live. *)
let remat_depth : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* The segment pool: recycles the transient tensor buffers of
   checkpointed segments (both at construction, where the segment is
   built once and immediately discarded, and at replay). Domain-local,
   like every ambient pool. Reset only at depth 0 — everything handed
   out for the previous segment is unreachable once its barrier closed. *)
let segment_pool : Tensor.Pool.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Tensor.Pool.create ())

(* Observability hook: the replay of a tape segment re-executes user
   code whose instrumentation (site timers, estimator statistics) must
   not double-report. [Adev] registers [Obs.suppress] here at load
   time; the default is a plain call. *)
let replay_silencer : ((unit -> unit) -> unit) ref = ref (fun f -> f ())
let set_replay_silencer s = replay_silencer := s

let node v parents =
  let id = Atomic.fetch_and_add counter 1 + 1 in
  track_new ();
  let tl = Domain.DLS.get tally in
  tl.created <- tl.created + 1;
  { id; v; g = None; g_owned = false; parents = Array.of_list parents;
    remat = None }

let const v = node v []
let scalar x = const (Tensor.scalar x)
let value t = t.v
let to_float t = Tensor.to_scalar t.v
let shape t = Tensor.shape t.v
let is_leaf t = Array.length t.parents = 0
let id t = t.id
let node_count () = Atomic.get counter

let accumulate t delta =
  match t.g with
  | None ->
    t.g <- Some delta;
    t.g_owned <- false
  | Some g when t.g_owned && Tensor.same_shape g delta -> Tensor.add_ g delta
  | Some g when Tensor.same_shape g delta ->
    let h = Tensor.copy g in
    Tensor.add_ h delta;
    t.g <- Some h;
    t.g_owned <- true
  | Some g ->
    (* Mismatched shapes (a broadcasting custom vjp): fall back to the
       allocating broadcast add. *)
    t.g <- Some (Tensor.add g delta);
    t.g_owned <- true

(* [local_sweep ~stop root seed] seeds [root] with [seed] and runs the
   reverse sweep over every node reachable from it whose id is > [stop]
   — nodes at or below [stop] are treated as boundary leaves: deltas
   accumulate into them but their own parents are not traversed (the
   enclosing sweep owns them). [stop = 0] is a full backward. Returns
   the number of nodes swept (they are retired by the caller).

   Topological order by DFS with an explicit stack — deep tapes (long
   training unrolls, large AIR step counts) must not overflow the
   OCaml call stack — then reverse sweep. Visits parents in the same
   order as the recursive formulation, so the gradient accumulation
   order (and hence every bit of the result) is unchanged. A remat
   node's sweep replays its segment instead of calling parent vjps:
   the replayed interior delivers its boundary deltas in the same
   relative order the full tape would have (segment interiors are
   private, so the reverse postorder groups them into the same
   contiguous blocks either way). *)
let rec local_sweep ~stop root seed =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let swept = ref 0 in
  let stack = ref [] in
  let push n =
    Hashtbl.add visited n.id ();
    stack := (n, ref 0) :: !stack
  in
  push root;
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | (n, next_parent) :: rest ->
      if !next_parent < Array.length n.parents then begin
        let p, _ = n.parents.(!next_parent) in
        incr next_parent;
        if p.id > stop && not (Hashtbl.mem visited p.id) then push p
      end
      else begin
        stack := rest;
        order := n :: !order;
        incr swept
      end
  done;
  accumulate root seed;
  List.iter
    (fun n ->
      match n.g with
      | None -> ()
      | Some g -> (
        match n.remat with
        | Some f -> replay f g
        | None ->
          Array.iter
            (fun (p, vjp) ->
              if stop > 0 && p.id <= stop then begin
                (* Boundary delta during a replay-local sweep: it
                   outlives this replay's pool resets, so it must be
                   an owned heap tensor. The vjp may return a pooled
                   tensor unchanged (identity-style vjps pass [g]
                   through), so copy defensively with no ambient
                   pool. *)
                let saved = Tensor.current_pool () in
                Tensor.set_pool None;
                (try accumulate p (Tensor.copy (vjp g))
                 with e ->
                   Tensor.set_pool saved;
                   raise e);
                Tensor.set_pool saved
              end
              else accumulate p (vjp g))
            n.parents))
    !order;
  !swept

(* Rebuild a discarded segment and backpropagate [g] through it. The
   thunk closes over the segment's original boundary nodes, so the
   local sweep accumulates into the real graph directly; everything
   the replay creates above the boundary is transient. The replayed
   forward AND the interior of its local sweep draw their buffers from
   the segment pool (reset on entry at depth 0 — the previous
   segment's replay is fully consumed by then); only deltas crossing
   the boundary go to the heap, because they outlive pool resets. *)
and replay f g =
  Atomic.incr remat_replay_total;
  let depth = Domain.DLS.get remat_depth in
  incr depth;
  let saved_pool = Tensor.current_pool () in
  let pool = Domain.DLS.get segment_pool in
  if !depth = 1 then Tensor.Pool.reset pool;
  Tensor.set_pool (Some pool);
  let tl = Domain.DLS.get tally in
  let created0 = tl.created and retired0 = tl.retired in
  let finish () =
    Tensor.set_pool saved_pool;
    decr depth
  in
  (match
     !replay_silencer (fun () ->
         let stop = Atomic.get counter in
         let r = f () in
         (* The sweep runs with the segment pool still ambient:
            interior gradients are transient (dead once this replay's
            nodes retire), so they recycle through the pool like the
            replayed forward's tensors. Deltas crossing the boundary
            are switched to owned heap tensors inside [local_sweep] —
            they are read after the pool has been reset for the next
            segment. *)
         let swept =
           if r.id > stop then local_sweep ~stop r g
           else begin
             (* Degenerate replay: the thunk returned a pre-existing
                node (possible only if the graph mutated under us —
                checkpoint never builds a remat node in this case). *)
             Tensor.set_pool None;
             accumulate r g;
             0
           end
         in
         ignore swept)
   with
  | () ->
    let produced = tl.created - created0 - (tl.retired - retired0) in
    tl.retired <- tl.retired + produced;
    retire produced;
    finish ()
  | exception e ->
    finish ();
    raise e)

let backward root =
  if not (Tensor.is_scalar root.v || Tensor.size root.v = 1) then
    invalid_arg "Ad.backward: root is not a scalar";
  let swept = local_sweep ~stop:0 root (Tensor.ones (Tensor.shape root.v)) in
  (* The tape is consumed: every swept node retires (leaves included —
     a fresh frame hands out fresh leaves next step). *)
  let tl = Domain.DLS.get tally in
  tl.retired <- tl.retired + swept;
  retire swept

(* [checkpoint f] runs [f] once, discards the tape segment it built,
   and returns a single barrier node carrying the segment's value; the
   segment is rebuilt by replaying [f] if and when a gradient reaches
   the barrier during [backward]. [f] must be replay-deterministic:
   same nodes, same values, bit for bit (true for objective builders
   that close over a parameter frame and explicit PRNG keys; false for
   thunks reading ambient mutable state, e.g. REINFORCE baseline
   cells — see docs/MEMORY.md). With [pool] (default true) the
   segment's transient tensors are drawn from the domain's segment
   pool, so per-step heap allocation stops scaling with the number of
   segments. *)
let checkpoint ?(pool = true) f =
  let start = Atomic.get counter in
  let tl = Domain.DLS.get tally in
  let created0 = tl.created and retired0 = tl.retired in
  let depth = Domain.DLS.get remat_depth in
  incr depth;
  let saved_pool = Tensor.current_pool () in
  let seg = Domain.DLS.get segment_pool in
  if pool then begin
    if !depth = 1 then Tensor.Pool.reset seg;
    Tensor.set_pool (Some seg)
  end;
  let finish () =
    Tensor.set_pool saved_pool;
    decr depth
  in
  let r = try f () with e -> finish (); raise e in
  (* The barrier's value must survive segment-pool resets: copy it out
     with no ambient pool. Boundary values predate the segment, so only
     the root needs rescuing. *)
  let v =
    if pool then begin
      Tensor.set_pool None;
      Tensor.copy r.v
    end
    else r.v
  in
  finish ();
  if r.id <= start then r
  else begin
    (* Boundary discovery replicates the backward DFS (parents in array
       order, first-encounter) so the barrier's parent order gives
       boundary nodes the same relative first-visit order in the main
       sweep that the full tape would have given them. *)
    let visited = Hashtbl.create 64 in
    let boundary = ref [] in
    let stack = ref [ (r, ref 0) ] in
    Hashtbl.add visited r.id ();
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | (n, next_parent) :: rest ->
        if !next_parent < Array.length n.parents then begin
          let p, _ = n.parents.(!next_parent) in
          incr next_parent;
          if not (Hashtbl.mem visited p.id) then begin
            Hashtbl.add visited p.id ();
            if p.id <= start then boundary := p :: !boundary
            else stack := (p, ref 0) :: !stack
          end
        end
        else stack := rest
    done;
    let produced = tl.created - created0 - (tl.retired - retired0) in
    tl.retired <- tl.retired + produced;
    retire produced;
    let parents =
      Array.of_list
        (List.rev_map (fun b -> (b, fun (g : Tensor.t) -> g)) !boundary)
    in
    let id = Atomic.fetch_and_add counter 1 + 1 in
    track_new ();
    tl.created <- tl.created + 1;
    { id; v; g = None; g_owned = false; parents; remat = Some f }
  end

let grad t =
  match t.g with
  | Some g -> g
  | None -> Tensor.zeros (Tensor.shape t.v)

let stop_grad t = const t.v
let custom ~value ~parents = node value parents

(* Sum a broadcast gradient back down to [target] shape. *)
let unbroadcast target g =
  if Tensor.shape g = target then g
  else begin
    let gs = Tensor.shape g in
    let rg = Array.length gs and rt = Array.length target in
    (* Sum out leading extra dims. *)
    let g = ref g in
    for _ = 1 to rg - rt do
      g := Tensor.sum_axis 0 !g
    done;
    (* Sum over dims where the target had size 1. *)
    Array.iteri
      (fun d dt ->
        if dt = 1 && (Tensor.shape !g).(d) <> 1 then
          g :=
            Tensor.reshape
              (Array.mapi
                 (fun i s -> if i = d then 1 else s)
                 (Tensor.shape !g))
              (Tensor.sum_axis d !g))
      target;
    Tensor.reshape target !g
  end

let binop f dfa dfb a b =
  let v = f a.v b.v in
  node v
    [ (a, fun g -> unbroadcast (Tensor.shape a.v) (dfa g));
      (b, fun g -> unbroadcast (Tensor.shape b.v) (dfb g)) ]

let add a b = binop Tensor.add (fun g -> g) (fun g -> g) a b
let sub a b = binop Tensor.sub (fun g -> g) (fun g -> Tensor.neg g) a b

let mul a b =
  binop Tensor.mul (fun g -> Tensor.mul g b.v) (fun g -> Tensor.mul g a.v) a b

let div a b =
  binop Tensor.div
    (fun g -> Tensor.div g b.v)
    (fun g -> Tensor.neg (Tensor.div (Tensor.mul g a.v) (Tensor.mul b.v b.v)))
    a b

let unop f df a =
  let v = f a.v in
  node v [ (a, fun g -> Tensor.mul g (df a.v v)) ]

let neg a = node (Tensor.neg a.v) [ (a, Tensor.neg) ]
let scale c a = node (Tensor.scale c a.v) [ (a, Tensor.scale c) ]
let add_scalar c a = node (Tensor.add_scalar c a.v) [ (a, fun g -> g) ]
(* The hot vjps use the specialized one-pass tensor kernels instead of
   closure maps (same float expressions, so every gradient bit is
   unchanged — see [Kernel]). *)
let exp a = unop Tensor.exp (fun _ v -> v) a
let log a = unop Tensor.log (fun x _ -> Tensor.recip x) a

let sqrt a =
  unop Tensor.sqrt (fun _ v -> Tensor.div (Tensor.scalar 0.5) v) a

let sigmoid a = unop Tensor.sigmoid (fun _ v -> Tensor.sigmoid_deriv v) a

let tanh a = unop Tensor.tanh (fun _ v -> Tensor.map (fun s -> 1. -. (s *. s)) v) a

let relu a =
  unop Tensor.relu (fun x _ -> Tensor.map (fun xi -> if xi > 0. then 1. else 0.) x) a

let softplus a = unop Tensor.softplus (fun x _ -> Tensor.sigmoid x) a

let log1p_exp = softplus

let pow_scalar a p =
  unop
    (fun x -> Tensor.pow_scalar x p)
    (fun x _ -> Tensor.map (fun xi -> p *. Float.pow xi (p -. 1.)) x)
    a

let sum a =
  node (Tensor.sum_keep a.v)
    [ (a, fun g -> Tensor.full (Tensor.shape a.v) (Tensor.to_scalar g)) ]

let mean a =
  let n = float_of_int (Stdlib.max 1 (Tensor.size a.v)) in
  node
    (Tensor.scalar (Tensor.mean a.v))
    [ (a, fun g -> Tensor.full (Tensor.shape a.v) (Tensor.to_scalar g /. n)) ]

let dot a b =
  node
    (Tensor.scalar (Tensor.dot a.v b.v))
    [ (a, fun g -> Tensor.scale (Tensor.to_scalar g) b.v);
      (b, fun g -> Tensor.scale (Tensor.to_scalar g) a.v) ]

let matmul a b =
  let v = Tensor.matmul a.v b.v in
  let ra = Array.length (Tensor.shape a.v)
  and rb = Array.length (Tensor.shape b.v) in
  match (ra, rb) with
  | 2, 2 ->
    node v
      [ (a, fun g -> Tensor.matmul_t g b.v);
        (b, fun g -> Tensor.t_matmul a.v g) ]
  | 2, 1 ->
    node v
      [ (a, fun g -> Tensor.outer g b.v);
        (b, fun g -> Tensor.t_matmul a.v g) ]
  | 1, 2 ->
    node v
      [ (a, fun g -> Tensor.matmul b.v g);
        (b, fun g -> Tensor.outer a.v g) ]
  | _ -> raise (Tensor.Shape_error "Ad.matmul: unsupported ranks")

let transpose a =
  node (Tensor.transpose a.v) [ (a, Tensor.transpose) ]

let logsumexp a =
  let lse = Tensor.logsumexp a.v in
  node
    (Tensor.scalar lse)
    [ (a,
       fun g ->
         let gs = Tensor.to_scalar g in
         Tensor.map (fun x -> gs *. Float.exp (x -. lse)) a.v) ]

(* Re-insert a size-1 dimension at [ax] and broadcast back to the input
   shape, turning the gradient of an axis reduction into a full-shape
   cotangent. *)
let expand_reduced ax in_shape t =
  let r = Array.length in_shape in
  let keep = Array.init r (fun i -> if i = ax then 1 else in_shape.(i)) in
  Tensor.broadcast_to (Tensor.reshape keep t) in_shape

let sum_axis ax a =
  let in_shape = Tensor.shape a.v in
  node (Tensor.sum_axis ax a.v) [ (a, fun g -> expand_reduced ax in_shape g) ]

let logsumexp_axis ax a =
  let in_shape = Tensor.shape a.v in
  let lse = Tensor.logsumexp_axis ax a.v in
  node lse
    [ (a,
       fun g ->
         (* d lse / d x = softmax along the axis: exp (x - lse). *)
         Tensor.mul
           (expand_reduced ax in_shape g)
           (Tensor.exp (Tensor.sub a.v (expand_reduced ax in_shape lse)))) ]

let bernoulli_logits_scores ~x logits =
  let v, sigma = Tensor.bernoulli_logits_scores_fwd ~logits:logits.v ~x in
  node v
    [ (logits,
       fun g ->
         unbroadcast (Tensor.shape logits.v)
           (Tensor.bernoulli_logits_scores_vjp ~sigma ~x ~g)) ]

let log_softmax a =
  let lse = Tensor.logsumexp a.v in
  let v = Tensor.map (fun x -> x -. lse) a.v in
  node v
    [ (a,
       fun g ->
         let total = Tensor.sum g in
         Tensor.map2 (fun gi vi -> gi -. (total *. Float.exp vi)) g v) ]

let reshape new_shape a =
  let old_shape = Tensor.shape a.v in
  node (Tensor.reshape new_shape a.v) [ (a, Tensor.reshape old_shape) ]

let concat0 ts =
  let v = Tensor.concat0 (List.map value ts) in
  let parents =
    let off = ref 0 in
    List.map
      (fun t ->
        let n0 = (Tensor.shape t.v).(0) in
        let start = !off in
        off := !off + n0;
        ( t,
          fun g ->
            Tensor.take_rows g (List.init n0 (fun i -> start + i)) ))
      ts
  in
  node v parents

let stack0 ts =
  let v = Tensor.stack0 (List.map value ts) in
  let parents = List.mapi (fun i t -> (t, fun g -> Tensor.slice0 g i)) ts in
  node v parents

let slice0 a i =
  let full_shape = Tensor.shape a.v in
  node (Tensor.slice0 a.v i)
    [ (a,
       fun g ->
         let z = Tensor.zeros full_shape in
         let sub_size = Tensor.size g in
         Tensor.of_array full_shape
           (Array.mapi
              (fun flat zero ->
                let lo = i * sub_size in
                if flat >= lo && flat < lo + sub_size then
                  Tensor.get_flat g (flat - lo)
                else zero)
              (Tensor.to_array z))) ]

let get a ix =
  let full_shape = Tensor.shape a.v in
  node
    (Tensor.scalar (Tensor.get a.v ix))
    [ (a,
       fun g ->
         let out = Tensor.to_array (Tensor.zeros full_shape) in
         (* Recompute the flat index via a one-hot trick. *)
         let probe = Tensor.init full_shape (fun jx -> if jx = ix then 1. else 0.) in
         Array.iteri
           (fun flat p -> if p = 1. then out.(flat) <- Tensor.to_scalar g)
           (Tensor.to_array probe);
         Tensor.of_array full_shape out) ]

let add_list = function
  | [] -> scalar 0.
  | first :: rest -> List.fold_left add first rest

module O = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
end

let finite_diff_grad ?(eps = 1e-5) f x =
  let xs = Tensor.to_array x in
  let shape = Tensor.shape x in
  let g = Array.make (Array.length xs) 0. in
  for i = 0 to Array.length xs - 1 do
    let bump d =
      let xs' = Array.copy xs in
      xs'.(i) <- xs'.(i) +. d;
      f (Tensor.of_array shape xs')
    in
    g.(i) <- (bump eps -. bump (-.eps)) /. (2. *. eps)
  done;
  Tensor.of_array shape g
