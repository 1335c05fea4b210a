(* The two systems of experiment E18: the OTP channel pair whose members
   an adversary may take over, and the 2-of-3 committee whose validators
   it may silence, each checked for ≤_SE under a k-of-n compromise budget.

   Timed runs call E18's own checks ([Experiments.e18_otp] and
   [Experiments.e18_committee], compiled in from bench/). Those build their
   systems inside the check, so the traced replay, which calls each layer
   itself, needs the pieces: [build] returns them. The replay's verdicts
   must equal E18's, distance for distance, so a change to E18's systems
   that moves a verdict and is not made here fails every traced run. *)

open Cdse

type system = Otp | Committee

let system_name = function Otp -> "otp" | Committee -> "committee"

(* One ≤_SE check, in the pieces the replay calls layer by layer. The
   limits bound the exploration that computes the adversary-action
   universe; [None] leaves the library default. *)
type check = {
  real : Structured.t;
  ideal : Structured.t;
  adv : Psioa.t;
  sim : Psioa.t;
  max_states : int option;
  max_depth : int option;
  schema : Schema.t;
  env : Psioa.t;
  bound : int;
}

let otp k =
  let names = [ "n0"; "n1" ] in
  let wrapped n =
    Fault.compromise
      ~adversarial:(Structured.psioa (Secure_channel.real_leaky n))
      (Structured.psioa (Secure_channel.real n))
  in
  let inj = Fault.injector ~faults:(List.map Fault.compromise_action names) () in
  let sys = Compose.parallel (inj :: List.map wrapped names) in
  let eact q =
    Action_set.filter
      (fun a ->
        let base = Action.name a in
        List.exists
          (fun n -> String.equal base (n ^ ".send") || String.equal base (n ^ ".recv"))
          names)
      (Sigs.ext (Psioa.signature sys q))
  in
  {
    real = Structured.make sys ~eact;
    ideal = Structured.compose (Secure_channel.ideal "n0") (Secure_channel.ideal "n1");
    adv = Compose.parallel (List.map Secure_channel.adversary names);
    sim = Compose.parallel (List.map Secure_channel.simulator names);
    max_states = None;
    max_depth = None;
    schema = Fault.compromise_budget k;
    env = Secure_channel.env_guess ~msg:1 "n0";
    bound = 24;
  }

let nobody =
  Psioa.make ~name:"nobody" ~start:Value.unit
    ~signature:(fun _ -> Sigs.empty)
    ~transition:(fun _ _ -> None)

let committee k =
  let cmt =
    Committee.build ~max_validators:3 ~blocks:1 ~quorum:(`At_least 2)
      ~wrap_validator:(fun _ v ->
        Fault.compromise ~adversarial:(Adversary.silent_takeover v) v)
      "cmt"
  in
  let inj =
    Fault.injector
      ~faults:(List.init 3 (fun i -> Fault.compromise_action (Committee.validator_name "cmt" i)))
      ()
  in
  let bound = 20 in
  {
    real = Committee.structured_psioa (Compose.pair inj (Pca.psioa cmt)) "cmt";
    ideal = Committee.ideal ~blocks:1 "cmt";
    adv = nobody;
    sim = nobody;
    max_states = Some 800;
    max_depth = Some bound;
    schema = Fault.compromise_budget ~avoid:Experiments.is_retire k;
    env = Committee.env_commit ~block:0 "cmt";
    bound;
  }

let build system k = match system with Otp -> otp k | Committee -> committee k

(* E18's check, exactly as the experiment runs it, under the default engine. *)
let verdict system k =
  match system with
  | Otp -> Experiments.e18_otp Impl.default_engine k
  | Committee -> Experiments.e18_committee Impl.default_engine k

(* The E18 table: OTP holds iff no member is compromised (slack 1/2
   above); the 2-of-3 committee tolerates one (slack 1 above). *)
let expected system k =
  match system with
  | Otp -> if k = 0 then (true, Rat.zero) else (false, Rat.half)
  | Committee -> if k <= 1 then (true, Rat.zero) else (false, Rat.one)

let matches (holds, worst) (v : Impl.verdict) =
  v.Impl.holds = holds && Rat.equal v.Impl.worst worst

(* An E18 point: both systems at one compromise budget — one row of the
   E18 table, and the unit of work of the verdict workload. *)
let budgets = [ 0; 1; 2; 3 ]

(* Rounds of the four points, each round in its own seeded order. *)
let points ~seed =
  let rng = Rng.make seed and queue = ref [] in
  fun () ->
    (match !queue with [] -> queue := Rng.shuffle rng budgets | _ -> ());
    match !queue with
    | k :: rest ->
        queue := rest;
        k
    | [] -> assert false
