open Cdse_prob
open Cdse_psioa

let preserving reg config act =
  (* One signature evaluation per member: the configuration signature is
     built from the member signatures that also decide participation. *)
  let members =
    List.map
      (fun (id, q) ->
        let auto = Registry.find reg id in
        (id, q, auto, Psioa.signature auto q))
      (Config.entries config)
  in
  let sg = Config.signature_of_sigs (List.map (fun (_, _, _, s) -> s) members) in
  if not (Sigs.mem act sg) then None
  else begin
    (* Each member either participates (its own measure) or stays (Dirac),
       exactly the joint transition of Definition 2.5 lifted to named
       members. *)
    let per_member =
      List.map
        (fun (id, q, auto, s) ->
          let d = if Sigs.mem act s then Psioa.step auto q act else Vdist.dirac q in
          Dist.map ~compare:(Cdse_util.Order.pair String.compare Value.compare) (fun q' -> (id, q')) d)
        members
    in
    let joint =
      Dist.product_list ~compare:(Cdse_util.Order.pair String.compare Value.compare) per_member
    in
    Some (Dist.map ~compare:Config.compare Config.make joint)
  end

let intrinsic reg config act ~created =
  match preserving reg config act with
  | None -> None
  | Some eta_p ->
      let fresh = List.filter (fun id -> not (Config.mem config id)) created in
      let extend_and_reduce c =
        let extended =
          List.fold_left (fun c id -> Config.add id (Psioa.start (Registry.find reg id)) c) c fresh
        in
        Config.reduce reg extended
      in
      (* Dist.map sums the probabilities of outcomes that collapse to the
         same reduced configuration — the η_r summation of Definition 2.14. *)
      Some (Dist.map ~compare:Config.compare extend_and_reduce eta_p)
