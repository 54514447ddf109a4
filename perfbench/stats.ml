(* Growable sample buffers and order statistics. *)

type samples = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

(* Linear interpolation between closest ranks; 0 when empty. *)
let quantile_of_array a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let count s = s.n

let sum s =
  let t = ref 0. in
  for i = 0 to s.n - 1 do
    t := !t +. s.data.(i)
  done;
  !t

let quantile s q = quantile_of_array (Array.sub s.data 0 s.n) q
let median_list l = quantile_of_array (Array.of_list l) 0.5
