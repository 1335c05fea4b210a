open Cdse_util
open Cdse_prob
open Cdse_psioa

type report = {
  max_part_bits : int;
  max_decode_cost : int;
  max_state_cost : int;
  bound : int;
  states_explored : int;
}

let rng = Rng.make 0xB0DED

let measure_common ?(max_states = 200) ?(max_depth = 6) auto ~extra =
  let states = Psioa.reachable ~max_states ~max_depth auto in
  let part = ref 0 and decode = ref 0 and state_cost = ref 0 in
  let bump r v = if v > !r then r := v in
  List.iter
    (fun q ->
      let qbits = Encode.state q in
      bump part (Bits.length qbits);
      let ok, c = Machines.m_start auto qbits in
      ignore ok;
      bump decode c;
      Action_set.iter
        (fun act ->
          let abits = Encode.action act in
          bump part (Bits.length abits);
          List.iter
            (fun kind ->
              let _, c = Machines.m_sig auto qbits abits kind in
              bump decode c)
            [ `Input; `Output; `Internal ];
          match Psioa.transition auto q act with
          | None -> ()
          | Some eta ->
              let trbits = Encode.transition q act eta in
              bump part (Bits.length trbits);
              let _, c = Machines.m_trans auto trbits in
              bump decode c;
              List.iter
                (fun q' ->
                  let _, c = Machines.m_step auto trbits (Encode.state q') in
                  bump decode c)
                (Dist.support eta);
              let _, c = Machines.m_state auto rng qbits abits in
              bump state_cost c)
        (Psioa.enabled auto q);
      extra ~bump ~part ~decode q qbits)
    states;
  let bound = max !part (max !decode !state_cost) in
  { max_part_bits = !part;
    max_decode_cost = !decode;
    max_state_cost = !state_cost;
    bound;
    states_explored = List.length states }

let measure_psioa ?max_states ?max_depth auto =
  measure_common ?max_states ?max_depth auto ~extra:(fun ~bump:_ ~part:_ ~decode:_ _ _ -> ())

let measure_pca pca =
  let auto = Cdse_config.Pca.psioa pca in
  measure_common auto ~extra:(fun ~bump ~part ~decode q qbits ->
      (* Definition 4.2: configuration, created and hidden encodings and
         machines also count towards the bound. *)
      let cbits, cost = Machines.m_conf pca qbits in
      bump part (Bits.length cbits);
      bump decode cost;
      let hbits, cost = Machines.m_hidden pca qbits in
      bump part (Bits.length hbits);
      bump decode cost;
      Action_set.iter
        (fun act ->
          let fbits, cost = Machines.m_created pca qbits (Encode.action act) in
          bump part (Bits.length fbits);
          bump decode cost)
        (Psioa.enabled auto q))

let is_time_bounded ?max_states ?max_depth auto ~b =
  (measure_psioa ?max_states ?max_depth auto).bound <= b

let comp_ratio r1 r2 r12 = float_of_int r12.bound /. float_of_int (r1.bound + r2.bound)

let hide_ratio ~before ~after ~recognizer_bits =
  float_of_int after.bound /. float_of_int (before.bound + recognizer_bits)
