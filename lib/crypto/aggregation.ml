open Cdse_psioa
open Cdse_secure

let act = Action.make
let acti name v = Action.make ~payload:(Value.int v) name

let bits = [ 0; 1 ]
let in_ n i x = acti (Printf.sprintf "%s.in%d" n i) x
let masked n i v = acti (Printf.sprintf "%s.m%d" n i) v
let leak n = act (n ^ ".leak")
let release n = act (n ^ ".release")
let sum_act n x = acti (n ^ ".sum") x

let ints l = Value.list (List.map Value.int l)

let of_ints = function
  | Value.List l -> List.filter_map (function Value.Int i -> Some i | _ -> None) l
  | _ -> []

(* Protocol phases: collect inputs ascending; draw all masks in one
   probabilistic internal step (the joint pad distribution — uniform over
   2^parties vectors); publish the masked values ascending (AO); await the
   adversary's release; announce the XOR of the true inputs. [mask] turns
   the pad vector off for the unmasked falsification variant. *)
let protocol ~mask ~parties n =
  let collect xs = Value.tag "agc" (ints xs) in
  let publish xs ms k = Value.tag "agp" (Value.list [ ints xs; ints ms; Value.int k ]) in
  let done_ = Value.tag "agd" Value.unit in
  let draw = act (n ^ ".draw") in
  let xor_all xs = List.fold_left ( lxor ) 0 xs in
  let signature q =
    match q with
    | Value.Tag ("agc", Value.List xs) when List.length xs < parties ->
        Sigs.of_lists ~i:(List.map (in_ n (List.length xs)) bits) ()
    | Value.Tag ("agc", _) -> Sigs.of_lists ~h:[ draw ] ()
    | Value.Tag ("agp", Value.List [ _; Value.List ms; Value.Int k ]) when k < parties ->
        let mk = match List.nth_opt (of_ints (Value.List ms)) k with Some v -> v | None -> 0 in
        Sigs.of_lists ~o:[ masked n k mk ] ()
    | Value.Tag ("agp", _) -> Sigs.of_lists ~i:[ release n ] ()
    | Value.Tag ("agw", Value.List xs) ->
        Sigs.of_lists ~o:[ sum_act n (xor_all (of_ints (Value.List xs))) ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("agc", Value.List xs_v) ->
        let xs = of_ints (Value.List xs_v) in
        if List.length xs < parties then
          List.find_map
            (fun x ->
              if Action.equal a (in_ n (List.length xs) x) then
                Some (Vdist.dirac (collect (xs @ [ x ])))
              else None)
            bits
        else if Action.equal a draw then
          (* All pad vectors, uniformly; the unmasked variant collapses to
             the zero vector. *)
          let vectors =
            if mask then
              let rec all k = if k = 0 then [ [] ] else List.concat_map (fun v -> [ 0 :: v; 1 :: v ]) (all (k - 1)) in
              all parties
            else [ List.map (fun _ -> 0) xs ]
          in
          Some
            (Vdist.uniform
               (List.map (fun pad -> publish xs (List.map2 ( lxor ) xs pad) 0) vectors))
        else None
    | Value.Tag ("agp", Value.List [ xs_v; ms_v; Value.Int k ]) ->
        let ms = of_ints ms_v in
        if k < parties then
          let mk = List.nth ms k in
          if Action.equal a (masked n k mk) then
            Some (Vdist.dirac (Value.tag "agp" (Value.list [ xs_v; ms_v; Value.int (k + 1) ])))
          else None
        else if Action.equal a (release n) then
          Some (Vdist.dirac (Value.tag "agw" xs_v))
        else None
    | Value.Tag ("agw", Value.List xs_v) ->
        let xs = of_ints (Value.List xs_v) in
        if Action.equal a (sum_act n (xor_all xs)) then Some (Vdist.dirac done_) else None
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:(collect []) ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("agc", Value.List xs) when List.length xs < parties ->
        Action_set.of_list (List.map (in_ n (List.length xs)) bits)
    | Value.Tag ("agw", Value.List xs) ->
        Action_set.of_list
          [ sum_act n (List.fold_left ( lxor ) 0 (of_ints (Value.List xs))) ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

let real ~parties n = protocol ~mask:true ~parties n
let unmasked ~parties n = protocol ~mask:false ~parties n

let ideal ~parties n =
  let collect xs = Value.tag "igc" (ints xs) in
  let leaking xs = Value.tag "igl" (ints xs) in
  let done_ = Value.tag "igd" Value.unit in
  let xor_all xs = List.fold_left ( lxor ) 0 xs in
  let signature q =
    match q with
    | Value.Tag ("igc", Value.List xs) when List.length xs < parties ->
        Sigs.of_lists ~i:(List.map (in_ n (List.length xs)) bits) ()
    | Value.Tag ("igc", _) | Value.Tag ("igl", _) -> (
        match q with
        | Value.Tag ("igc", _) -> Sigs.of_lists ~o:[ leak n ] ()
        | _ -> Sigs.of_lists ~i:[ release n ] ())
    | Value.Tag ("igw", _) -> Sigs.of_lists ~i:[ release n ] ()
    | Value.Tag ("iga", Value.List xs) ->
        Sigs.of_lists ~o:[ sum_act n (xor_all (of_ints (Value.List xs))) ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("igc", Value.List xs_v) ->
        let xs = of_ints (Value.List xs_v) in
        if List.length xs < parties then
          List.find_map
            (fun x ->
              if Action.equal a (in_ n (List.length xs) x) then
                Some (Vdist.dirac (collect (xs @ [ x ])))
              else None)
            bits
        else if Action.equal a (leak n) then Some (Vdist.dirac (leaking xs))
        else None
    | Value.Tag ("igl", xs_v) when Action.equal a (release n) ->
        Some (Vdist.dirac (Value.tag "iga" xs_v))
    | Value.Tag ("igw", xs_v) when Action.equal a (release n) ->
        Some (Vdist.dirac (Value.tag "iga" xs_v))
    | Value.Tag ("iga", Value.List xs_v) ->
        let xs = of_ints (Value.List xs_v) in
        if Action.equal a (sum_act n (xor_all xs)) then Some (Vdist.dirac done_) else None
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:(collect []) ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("igc", Value.List xs) when List.length xs < parties ->
        Action_set.of_list (List.map (in_ n (List.length xs)) bits)
    | Value.Tag ("iga", Value.List xs) ->
        Action_set.of_list
          [ sum_act n (List.fold_left ( lxor ) 0 (of_ints (Value.List xs))) ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

(* The adversary listens to party 0's masked publication only; the other
   publications fire as unobserved outputs (and [leak] similarly on the
   ideal side). The reporter skeleton handles receptivity and
   obligations. *)
let adversary n =
  Secure_channel.reporter ~name:(n ^ ".adv")
    ~inputs:(List.map (masked n 0) bits)
    ~on_input:(fun a ->
      List.find_map (fun v -> if Action.equal a (masked n 0 v) then Some v else None) bits)
    ~guess:(fun v -> acti (n ^ ".guess") v)
    ~deliver_act:(release n)

let simulator n =
  Secure_channel.simulator_with ~name:(n ^ ".sim") ~leak:(leak n) ~guess_name:(n ^ ".guess")
    ~deliver_act:(release n) ~width:1

(* Environment skeleton: feed the inputs in order, then play a final
   acceptance game. *)
let env ~final_inputs ~final_watch ~accept_on ~parties ~inputs n name_suffix =
  let feed k = Value.tag "age" (Value.pair (Value.str "feed") (Value.int k)) in
  let watch = Value.tag "age" (Value.pair (Value.str "watch") Value.unit) in
  let acc_st = Value.tag "age" (Value.pair (Value.str "acc") Value.unit) in
  let done_ = Value.tag "age" (Value.pair (Value.str "done") Value.unit) in
  let acc = act "acc" in
  ignore final_inputs;
  let signature q =
    match q with
    | Value.Tag ("age", Value.Pair (Value.Str "feed", Value.Int k)) when k < parties ->
        Sigs.of_lists ~o:[ in_ n k (List.nth inputs k) ] ()
    | Value.Tag ("age", Value.Pair (Value.Str "feed", _)) | Value.Tag ("age", Value.Pair (Value.Str "watch", _)) ->
        Sigs.of_lists ~i:final_watch ()
    | Value.Tag ("age", Value.Pair (Value.Str "acc", _)) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("age", Value.Pair (Value.Str "feed", Value.Int k)) when k < parties ->
        if Action.equal a (in_ n k (List.nth inputs k)) then
          Some (Vdist.dirac (if k + 1 < parties then feed (k + 1) else watch))
        else None
    | Value.Tag ("age", Value.Pair (Value.Str "feed", _))
    | Value.Tag ("age", Value.Pair (Value.Str "watch", _)) ->
        List.find_map
          (fun w ->
            if Action.equal a w then
              Some (Vdist.dirac (if accept_on w then acc_st else done_))
            else None)
          final_watch
    | Value.Tag ("age", Value.Pair (Value.Str "acc", _)) when Action.equal a acc ->
        Some (Vdist.dirac done_)
    | _ -> None
  in
  Psioa.make ~name:(n ^ name_suffix) ~start:(feed 0) ~signature ~transition

let env_guess ~parties ~inputs n =
  let x0 = List.nth inputs 0 in
  let watch = List.map (fun v -> acti (n ^ ".guess") v) bits in
  env ~final_inputs:() ~final_watch:watch
    ~accept_on:(fun a -> Value.equal (Action.payload a) (Value.int x0))
    ~parties ~inputs n ".envg"

let env_sum ~parties ~inputs n =
  let expected = List.fold_left ( lxor ) 0 inputs in
  let watch = List.map (fun x -> sum_act n x) bits in
  env ~final_inputs:() ~final_watch:watch
    ~accept_on:(fun a -> Value.equal (Action.payload a) (Value.int expected))
    ~parties ~inputs n ".envs"
