(* Host-speed-normalised time.

   On a shared virtual machine the speed of identical CPU work can change
   by 2x from one fraction of a second to the next, with no steal time and
   CPU time equal to wall time, so the guest cannot see it; slow phases
   can also last minutes. Wall-clock figures then spread across runs by
   more than any useful bound.

   The benchmark therefore times a fixed reference kernel between the
   operations it measures. The kernel is SHA-256-shaped integer mixing
   over an 8 KiB table: wide, allocation-free ALU work of the same kind as
   the program's RSA, SHA-256 and AES, written here and sharing no code
   with the program, so no change to the program can move it. Its duration
   is a sample of the host's current speed. It is the benchmark's own
   instrumentation, so the traced run gives it no span and subtracts its
   time instead.

   The normalised clock stands still while the kernel runs. Between two
   kernel runs it advances by the wall time elapsed, scaled by
   [reference_ns] over the mean of the two kernel durations. A normalised
   duration therefore reads as wall time on a host on which the kernel
   takes [reference_ns]. *)

(* About the kernel's time on a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz) in
   its fast phases, so normalised figures read like that host's fastest
   wall times. *)
let reference_ns = 45_000.

let now_ns = Span.now_ns
let mask = 0xFFFF_FFFF
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask
let words = Array.init 1024 (fun i -> (i * 0x9E37_79B9) land mask)

let kernel () =
  let a = ref 0x6a09e667 and b = ref 0xbb67ae85 and c = ref 0x3c6ef372 and d = ref 0xa54ff53a in
  let e = ref 0x510e527f and f = ref 0x9b05688c and g = ref 0x1f83d9ab and h = ref 0x5be0cd19 in
  for pass = 0 to 3 do
    for i = 0 to Array.length words - 1 do
      let w = (Array.unsafe_get words i + pass) land mask in
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!h + s1 + ch + 0x428a2f98 + w) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      h := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + s0 + maj) land mask
    done
  done;
  !a lxor !e

(* Recent ticks, newest at [head]: when the kernel ended (wall ns), the
   normalised clock while it ran (the clock stands still then), and the
   rate of the segment that ended at the kernel's start. *)
let ring = 256
let t_end = Array.make ring 0
let t_norm = Array.make ring 0.
let t_rate = Array.make ring 1.
let head = ref (-1)
let filled = ref 0
let last_kernel = ref 0
let norm = ref 0.

(* Wall time spent in the kernel so far (ns). *)
let spent = ref 0

(* Runs the kernel once and returns the normalised time (ns) at its end.
   The clock stands still during the kernel unless [waiting]: a generator
   that waits by running the kernel lets the clock run on through it, by
   [reference_ns] per run. *)
let tick ?(waiting = false) () =
  let s = now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let e = now_ns () in
  let k = e - s in
  if !head < 0 then begin
    head := 0;
    t_end.(0) <- e
  end
  else begin
    let prev = !head in
    let rate = reference_ns /. (float_of_int (k + !last_kernel) /. 2.) in
    norm := !norm +. (float_of_int (s - t_end.(prev)) *. rate) +. (if waiting then reference_ns else 0.);
    let i = (prev + 1) mod ring in
    head := i;
    t_end.(i) <- e;
    t_norm.(i) <- !norm;
    t_rate.(i) <- rate
  end;
  filled := min ring (!filled + 1);
  spent := !spent + k;
  last_kernel := k;
  !norm

(* Normalised ns per wall ns over the segment that ended at the last
   tick. *)
let rate () = if !filled = 0 then invalid_arg "Speed.rate: no tick yet" else t_rate.(!head)

(* The normalised clock now, extrapolated from the last tick at the last
   known speed. *)
let now () =
  if !filled = 0 then invalid_arg "Speed.now: no tick yet"
  else !norm +. (float_of_int (now_ns () - t_end.(!head)) *. t_rate.(!head))

(* The wall instant (ns) at which the normalised clock passed [n],
   interpolated between recent ticks. *)
let wall_of n =
  let rec back i steps =
    if n >= t_norm.(i) || steps = !filled - 1 then
      let rate = t_rate.(if i = !head then i else (i + 1) mod ring) in
      t_end.(i) + int_of_float (Float.max 0. (n -. t_norm.(i)) /. rate)
    else back ((i + ring - 1) mod ring) (steps + 1)
  in
  if !filled = 0 then invalid_arg "Speed.wall_of: no tick yet" else back !head 0
