(* Sorted-array representation: elements in strictly increasing [cmp] order,
   probabilities strictly positive, total mass cached at construction.
   Compared to the previous sorted association list this makes [make]
   one pass over strictly ascending input and otherwise an array sort plus
   one merging pass (no non-tail recursion, so 100k+ support points are
   safe), [prob] a binary search, and lets [product] /
   [product_list] build their (already sorted, duplicate-free) result
   directly without re-normalizing. *)

type 'a t = { cmp : 'a -> 'a -> int; elts : 'a array; probs : Rat.t array; mass : Rat.t }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let empty ~compare = { cmp = compare; elts = [||]; probs = [||]; mass = Rat.zero }

(* Internal: trusted components (sorted, positive, mass ≤ 1). *)
let unsafe ~compare ~elts ~probs ~mass = { cmp = compare; elts; probs; mass }

let check_mass m =
  if Rat.compare m Rat.one > 0 then invalid "Dist: mass %s exceeds 1" (Rat.to_string m)

(* [make]'s path for input out of order: a stable sort, then one pass that
   merges equal neighbours and drops zeros. Signs are already checked. *)
let sort_merge ~compare pairs =
  let arr = Array.of_list pairs in
  let n = Array.length arr in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) arr;
  let elts = Array.make n (fst arr.(0)) in
  let probs = Array.make n Rat.zero in
  let k = ref 0 in
  let mass = ref Rat.zero in
  let flush x p =
    if not (Rat.is_zero p) then begin
      elts.(!k) <- x;
      probs.(!k) <- p;
      mass := Rat.add !mass p;
      incr k
    end
  in
  let cur = ref arr.(0) in
  for i = 1 to n - 1 do
    let x, p = arr.(i) in
    let cx, cp = !cur in
    if compare cx x = 0 then cur := (cx, Rat.add cp p)
    else begin
      flush cx cp;
      cur := (x, p)
    end
  done;
  let cx, cp = !cur in
  flush cx cp;
  check_mass !mass;
  { cmp = compare;
    elts = Array.sub elts 0 !k;
    probs = Array.sub probs 0 !k;
    mass = !mass }

let check_sign p =
  if Rat.sign p < 0 then invalid "Dist: negative probability %s" (Rat.to_string p)

(* Checks every sign. Returns the number of non-zero entries of
   [(prev, _) :: pairs] if its elements ascend strictly, -1 otherwise. *)
let rec count_ascending compare prev nonzero = function
  | [] -> nonzero
  | (x, p) :: rest ->
      check_sign p;
      let nonzero = if Rat.is_zero p then nonzero else nonzero + 1 in
      if compare prev x < 0 then count_ascending compare x nonzero rest
      else begin
        List.iter (fun (_, p) -> check_sign p) rest;
        -1
      end

(* Copies the non-zero entries of a list into [elts] and [probs] from
   index [i]; returns [mass] plus theirs. *)
let rec fill elts probs i mass = function
  | [] -> mass
  | (x, p) :: rest ->
      if Rat.is_zero p then fill elts probs i mass rest
      else begin
        elts.(i) <- x;
        probs.(i) <- p;
        fill elts probs (i + 1) (Rat.add mass p) rest
      end

(* Merge-normalize an association list under [cmp]: merge duplicates,
   drop zeros, validate non-negativity and mass ≤ 1. One pass checks the
   signs and compares each element with the one before it; input that
   already ascends strictly (the measure engine's results) is copied into
   the arrays as it is, and only other input is sorted. One or two
   entries, the common transition and choice shapes, skip the pass. *)
let make ~compare pairs =
  match pairs with
  | [] -> empty ~compare
  | [ (x, p) ] ->
      check_sign p;
      if Rat.is_zero p then empty ~compare
      else begin
        check_mass p;
        unsafe ~compare ~elts:[| x |] ~probs:[| p |] ~mass:p
      end
  | [ (x, p); (y, q) ] when Rat.sign p > 0 && Rat.sign q > 0 ->
      let c = compare x y in
      let m = Rat.add p q in
      check_mass m;
      if c = 0 then unsafe ~compare ~elts:[| x |] ~probs:[| m |] ~mass:m
      else if c < 0 then unsafe ~compare ~elts:[| x; y |] ~probs:[| p; q |] ~mass:m
      else unsafe ~compare ~elts:[| y; x |] ~probs:[| q; p |] ~mass:m
  | (x0, p0) :: rest -> (
      check_sign p0;
      match count_ascending compare x0 (if Rat.is_zero p0 then 0 else 1) rest with
      | 0 -> empty ~compare
      | -1 -> sort_merge ~compare pairs
      | n ->
          let elts = Array.make n x0 and probs = Array.make n Rat.zero in
          let mass = fill elts probs 0 Rat.zero pairs in
          check_mass mass;
          unsafe ~compare ~elts ~probs ~mass)

let dirac ~compare x = { cmp = compare; elts = [| x |]; probs = [| Rat.one |]; mass = Rat.one }

let uniform ~compare l =
  match l with
  | [] -> invalid "Dist.uniform: empty support"
  | _ ->
      let p = Rat.of_ints 1 (List.length l) in
      make ~compare (List.map (fun x -> (x, p)) l)

let items d =
  List.init (Array.length d.elts) (fun i -> (d.elts.(i), d.probs.(i)))

let support d = Array.to_list d.elts
let size d = Array.length d.elts
let compare_elt d = d.cmp

let iter f d = Array.iteri (fun i x -> f x d.probs.(i)) d.elts

let fold f acc d =
  let acc = ref acc in
  for i = 0 to Array.length d.elts - 1 do
    acc := f !acc d.elts.(i) d.probs.(i)
  done;
  !acc

let prob d x =
  let lo = ref 0 and hi = ref (Array.length d.elts - 1) in
  let found = ref Rat.zero in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = d.cmp x d.elts.(mid) in
    if c = 0 then begin
      found := d.probs.(mid);
      lo := !hi + 1
    end
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  !found

let mass d = d.mass
let deficit d = Rat.sub Rat.one d.mass
let is_proper d = Rat.equal d.mass Rat.one

let scale factor d =
  if Rat.sign factor < 0 || Rat.compare factor Rat.one > 0 then
    invalid "Dist.scale: factor %s not in [0,1]" (Rat.to_string factor);
  if Rat.is_zero factor then empty ~compare:d.cmp
  else
    { d with
      probs = Array.map (fun p -> Rat.mul factor p) d.probs;
      mass = Rat.mul factor d.mass }

let map ~compare f d =
  make ~compare (List.init (Array.length d.elts) (fun i -> (f d.elts.(i), d.probs.(i))))

let bind ~compare d f =
  make ~compare
    (fold
       (fun acc x p -> fold (fun acc y q -> (y, Rat.mul p q) :: acc) acc (f x))
       [] d)

(* The lexicographic product of two sorted duplicate-free supports is itself
   sorted and duplicate-free: build it in one pass, no re-normalization. *)
let product a b =
  let compare = Cdse_util.Order.pair a.cmp b.cmp in
  let na = Array.length a.elts and nb = Array.length b.elts in
  if na = 0 || nb = 0 then empty ~compare
  else begin
    let elts = Array.make (na * nb) (a.elts.(0), b.elts.(0)) in
    let probs = Array.make (na * nb) Rat.zero in
    for i = 0 to na - 1 do
      let x = a.elts.(i) and p = a.probs.(i) in
      let row = i * nb in
      for j = 0 to nb - 1 do
        elts.(row + j) <- (x, b.elts.(j));
        probs.(row + j) <- Rat.mul p b.probs.(j)
      done
    done;
    unsafe ~compare ~elts ~probs ~mass:(Rat.mul a.mass b.mass)
  end

let product_list ~compare ds =
  let lcompare = Cdse_util.Order.list compare in
  List.fold_right
    (fun d acc ->
      let nd = Array.length d.elts and nacc = Array.length acc.elts in
      if nd = 0 || nacc = 0 then empty ~compare:lcompare
      else begin
        let elts = Array.make (nd * nacc) [] in
        let probs = Array.make (nd * nacc) Rat.zero in
        for i = 0 to nd - 1 do
          let x = d.elts.(i) and p = d.probs.(i) in
          let row = i * nacc in
          for j = 0 to nacc - 1 do
            elts.(row + j) <- x :: acc.elts.(j);
            probs.(row + j) <- Rat.mul p acc.probs.(j)
          done
        done;
        unsafe ~compare:lcompare ~elts ~probs ~mass:(Rat.mul d.mass acc.mass)
      end)
    ds
    (dirac ~compare:lcompare [])

let filter pred d =
  let keep = ref [] and mass = ref Rat.zero and k = ref 0 in
  for i = Array.length d.elts - 1 downto 0 do
    if pred d.elts.(i) then begin
      keep := i :: !keep;
      mass := Rat.add !mass d.probs.(i);
      incr k
    end
  done;
  match !keep with
  | [] -> empty ~compare:d.cmp
  | first :: _ ->
      let elts = Array.make !k d.elts.(first) in
      let probs = Array.make !k Rat.zero in
      List.iteri
        (fun j i ->
          elts.(j) <- d.elts.(i);
          probs.(j) <- d.probs.(i))
        !keep;
      unsafe ~compare:d.cmp ~elts ~probs ~mass:!mass

let normalize d =
  if Array.length d.elts = 0 || Rat.equal d.mass Rat.one then d
  else
    let inv = Rat.inv d.mass in
    { d with probs = Array.map (fun p -> Rat.mul inv p) d.probs; mass = Rat.one }

let expect f d = fold (fun acc x p -> Rat.add acc (Rat.mul (f x) p)) Rat.zero d

let equal a b =
  Array.length a.elts = Array.length b.elts
  &&
  let rec go i =
    i < 0
    || (a.cmp a.elts.(i) b.elts.(i) = 0 && Rat.equal a.probs.(i) b.probs.(i) && go (i - 1))
  in
  go (Array.length a.elts - 1)

let corresponds ~f a b =
  (* f restricted to supp(a) must be a probability-preserving bijection onto
     supp(b) (Definition 2.15). Pushing a through f and comparing measures
     checks surjectivity and preservation; injectivity on the support holds
     iff the image support has the same cardinality. *)
  let image = map ~compare:b.cmp f a in
  size image = size a && equal image b

(* Exact inverse-CDF draw by lazy binary expansion. Conceptually a uniform
   U ∈ [0,1) selects the band of the exact cumulative masses it falls in:
   [cum i, cum (i+1)) ↦ elts.(i), and the residual band [mass, 1) ↦ None
   (the deficit). U is revealed one bit at a time — after k bits it is
   known to lie in a dyadic interval [a, a + 2^-k) — and the draw resolves
   as soon as that interval fits inside a single band, so P(elts.(i)) is
   probs.(i) {e exactly} (no grid, no floats) and the expected number of
   bits consumed is finite (≤ 2 beyond the band boundaries' resolution). *)
let sample_bits bit d =
  let n = Array.length d.elts in
  if n = 0 then None
  else begin
    let cum = Array.make (n + 1) Rat.zero in
    for i = 0 to n - 1 do
      cum.(i + 1) <- Rat.add cum.(i) d.probs.(i)
    done;
    (* Band i < n is [cum i, cum (i+1)); band n is the deficit [cum n, 1). *)
    let upper i = if i < n then cum.(i + 1) else Rat.one in
    let rec refine a w i =
      (* Invariant: U ∈ [a, a + w), and a >= the lower bound of band i. *)
      let i = ref i in
      while !i < n && Rat.compare (upper !i) a <= 0 do incr i done;
      let i = !i in
      if Rat.compare (Rat.add a w) (upper i) <= 0 then
        if i < n then Some d.elts.(i) else None
      else
        let w = Rat.mul w Rat.half in
        refine (if bit () then Rat.add a w else a) w i
    in
    refine Rat.zero Rat.one 0
  end

let sample rng d = sample_bits (fun () -> Rng.bool rng) d

let pp pp_elt fmt d =
  Format.fprintf fmt "@[<hov 1>{";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf fmt ";@ ";
      Format.fprintf fmt "%a ↦ %a" pp_elt x Rat.pp d.probs.(i))
    d.elts;
  Format.fprintf fmt "}@]"
