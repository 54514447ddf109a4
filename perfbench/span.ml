(* In-memory span recorder for the traced run.

   The benchmark wraps each call it makes into a layer in [run]; spans
   nest by dynamic extent (the benchmark is single-threaded), so a
   span's parent is whatever span was open when it started, and all
   spans under one [root] share its request id. Around every span the
   recorder reads a vector of layer counters (signatures, hashed bytes,
   virtual busy time, cache hits, ...) through [set_probe]; each closed
   span keeps its total and self counters — its own deltas minus those of
   its children — so counts land where the work happened. Closed spans
   live in one growable Bigarray outside the OCaml heap, so recording
   allocates almost nothing, the collector never scans them, and the
   tracer's own cost stays small next to the calls it times; [spans]
   lists them after the run, [write_tsv] writes them out. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Counter vector layout; the probe fills exactly [n_counters] slots. *)
let c_strong = 0
let c_weak = 1
let c_deletion = 2
let c_sign_calls = 3
let c_hash_bytes = 4
let c_scpu_ns = 5
let c_host_ns = 6
let c_disk_ns = 7
let c_memo_hits = 8
let c_memo_misses = 9
let c_vc_hits = 10
let c_vc_misses = 11
let n_counters = 12

let counter_names =
  [| "strong"; "weak"; "deletion"; "sign_calls"; "hash_bytes"; "scpu_ns"; "host_ns"; "disk_ns"; "memo_hits";
     "memo_misses"; "vc_hits"; "vc_misses" |]

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;
  name : string;
  phase : string;
  t0 : int;
  t1 : int;
  self_ns : int;
  index : int;  (** row in the span store, for {!total} and {!self} *)
}

let on = ref false
let probe : (int array -> int -> unit) ref = ref (fun _ _ -> ())
let phase = ref "setup"
let enable b = on := b
let enabled () = !on
let set_probe f = probe := f
let set_phase p = phase := p

(* Open frames: a stack of fixed depth. *)
let max_depth = 32
let depth = ref 0
let f_id = Array.make max_depth 0
let f_req = Array.make max_depth 0
let f_name = Array.make max_depth ""
let f_phase = Array.make max_depth ""
let f_t0 = Array.make max_depth 0
let f_child_ns = Array.make max_depth 0
let f_c0 = Array.make (max_depth * n_counters) 0
let f_child = Array.make (max_depth * n_counters) 0
let scratch = Array.make n_counters 0

(* Closed spans: one flat int Bigarray, [stride] slots per span, outside
   the OCaml heap so the collector never scans it; names and phases are
   interned. *)
module A = Bigarray.Array1

let stride = 8 + (2 * n_counters)
let o_self = 8
let o_total = 8 + n_counters
let store = ref (A.create Bigarray.int Bigarray.c_layout 0)
let n = ref 0
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_of = ref [||]

let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_of := Array.append !name_of [| s |];
      i

let ensure_room () =
  let cap = A.dim !store / stride in
  if !n = cap then begin
    let bigger = A.create Bigarray.int Bigarray.c_layout (max 65536 (2 * cap) * stride) in
    A.blit !store (A.sub bigger 0 (A.dim !store));
    store := bigger
  end

let next_id = ref 1
let next_req = ref 1
let origin = now_ns ()

let open_frame name ~req =
  let d = !depth in
  if d = max_depth then invalid_arg "Span: nesting too deep";
  f_id.(d) <- !next_id;
  incr next_id;
  f_req.(d) <- req;
  f_name.(d) <- name;
  f_phase.(d) <- !phase;
  f_child_ns.(d) <- 0;
  Array.fill f_child (d * n_counters) n_counters 0;
  !probe f_c0 (d * n_counters);
  depth := d + 1;
  f_t0.(d) <- now_ns ()

let close_frame () =
  let t1 = now_ns () in
  !probe scratch 0;
  let d = !depth - 1 in
  depth := d;
  ensure_room ();
  let st = !store in
  let base = !n * stride in
  incr n;
  let dur = t1 - f_t0.(d) in
  A.unsafe_set st base f_id.(d);
  A.unsafe_set st (base + 1) (if d = 0 then 0 else f_id.(d - 1));
  A.unsafe_set st (base + 2) f_req.(d);
  A.unsafe_set st (base + 3) (intern f_name.(d));
  A.unsafe_set st (base + 4) (intern f_phase.(d));
  A.unsafe_set st (base + 5) f_t0.(d);
  A.unsafe_set st (base + 6) t1;
  A.unsafe_set st (base + 7) (dur - f_child_ns.(d));
  if d > 0 then f_child_ns.(d - 1) <- f_child_ns.(d - 1) + dur;
  for k = 0 to n_counters - 1 do
    let delta = scratch.(k) - f_c0.((d * n_counters) + k) in
    A.unsafe_set st (base + o_total + k) delta;
    A.unsafe_set st (base + o_self + k) (delta - f_child.((d * n_counters) + k));
    if d > 0 then f_child.(((d - 1) * n_counters) + k) <- f_child.(((d - 1) * n_counters) + k) + delta
  done

let with_frame f =
  match f () with
  | v ->
      close_frame ();
      v
  | exception e ->
      close_frame ();
      raise e

(* A span inside the current request (a request of its own when nothing
   is open). *)
let run name f =
  if not !on then f ()
  else begin
    let req = if !depth > 0 then f_req.(!depth - 1) else (incr next_req; !next_req) in
    open_frame name ~req;
    with_frame f
  end

(* A top-level span that starts a new request id. *)
let root name f =
  if not !on then f ()
  else begin
    incr next_req;
    open_frame name ~req:!next_req;
    with_frame f
  end

let get i =
  let st = !store and base = i * stride in
  let at k = A.get st (base + k) in
  { id = at 0; parent = at 1; req = at 2; name = !name_of.(at 3); phase = !name_of.(at 4); t0 = at 5; t1 = at 6;
    self_ns = at 7; index = i }

(* Counter [c]'s delta over the whole span, and net of its children. *)
let total s c = A.get !store ((s.index * stride) + o_total + c)
let self s c = A.get !store ((s.index * stride) + o_self + c)

(* Closed spans in closing order. *)
let spans () = List.init !n get

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let write_tsv path =
  let oc = open_out path in
  output_string oc "id\tparent\treq\tphase\tname\tstart_ns\tend_ns\tself_ns";
  Array.iter (fun c -> output_string oc ("\tself_" ^ c)) counter_names;
  output_char oc '\n';
  for i = 0 to !n - 1 do
    let s = get i in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d" s.id s.parent s.req s.phase s.name (s.t0 - origin) (s.t1 - origin)
      s.self_ns;
    for c = 0 to n_counters - 1 do
      Printf.fprintf oc "\t%d" (self s c)
    done;
    output_char oc '\n'
  done;
  close_out oc
