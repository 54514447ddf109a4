let small_primes =
  [
    2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97;
    101; 103; 107; 109; 113; 127; 131; 137; 139; 149; 151; 157; 163; 167; 173; 179; 181; 191; 193;
    197; 199; 211; 223; 227; 229; 233; 239; 241; 251;
  ]

let divisible_by_small n =
  List.exists (fun p -> Nat.rem_int n p = 0 && not (Nat.equal n (Nat.of_int p))) small_primes

let miller_rabin_round pow ~n1 ~d ~s a =
  (* n-1 = d * 2^s with d odd; witness a in [2, n-2] *)
  let x = ref (pow ~base:a ~exp:d) in
  if Nat.is_one !x || Nat.equal !x n1 then true
  else begin
    let rec squares i =
      if i >= s - 1 then false
      else begin
        x := pow ~base:!x ~exp:Nat.two;
        if Nat.equal !x n1 then true else squares (i + 1)
      end
    in
    squares 0
  end

let is_probably_prime ?(rounds = 20) rng n =
  if Nat.compare n Nat.two < 0 then false
  else if Nat.equal n Nat.two then true
  else if Nat.is_even n then false
  else if List.exists (fun p -> Nat.equal n (Nat.of_int p)) small_primes then true
  else if divisible_by_small n then false
  else begin
    let n1 = Nat.pred n in
    (* factor n-1 = d * 2^s *)
    let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n1 0 in
    let n3 = Nat.sub n (Nat.of_int 3) in
    (* One Montgomery context per candidate: its setup is the only long
       division the rounds pay. A candidate wider than the kernel takes
       runs on the generic path. *)
    let pow =
      match Nat.mont_init n with
      | ctx -> Nat.mod_pow_ctx ctx
      | exception Invalid_argument _ -> fun ~base ~exp -> Nat.mod_pow ~base ~exp ~modulus:n
    in
    let rec rounds_loop i =
      if i >= rounds then true
      else begin
        let a = Nat.add Nat.two (Drbg.nat_below rng (Nat.succ n3)) in
        (* a in [2, n-1]; clamp n-1 (which always passes) down to n-2 *)
        let a = if Nat.equal a n1 then Nat.two else a in
        if miller_rabin_round pow ~n1 ~d ~s a then rounds_loop (i + 1) else false
      end
    in
    rounds_loop 0
  end

let generate rng ~bits =
  if bits < 8 then invalid_arg "Prime.generate: need at least 8 bits";
  let rec try_candidate () =
    let n = Drbg.nat_bits rng bits in
    (* Force exact bit width and oddness: set the two top bits and bit 0. *)
    let top = Nat.shift_left Nat.one (bits - 1) in
    let second = Nat.shift_left Nat.one (bits - 2) in
    let n = ref n in
    if not (Nat.test_bit !n (bits - 1)) then n := Nat.add !n top;
    if not (Nat.test_bit !n (bits - 2)) then n := Nat.add !n second;
    if Nat.is_even !n then n := Nat.succ !n;
    (* March over a window of odd candidates before redrawing. *)
    let rec march c attempts =
      if attempts = 0 || Nat.bit_length c <> bits then try_candidate ()
      else if (not (divisible_by_small c)) && is_probably_prime rng c then c
      else march (Nat.add c Nat.two) (attempts - 1)
    in
    march !n 64
  in
  try_candidate ()
