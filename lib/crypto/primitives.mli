(** Toy cryptographic primitives for the protocol examples.

    The framework of the paper is agnostic to the concrete primitives; the
    examples need (i) an information-theoretically secure cipher — the
    one-time pad, where the emulation slack is exactly 0 — and (ii)
    computational stand-ins (PRG, hash, commitment) whose security is a
    {e simulated assumption} (DESIGN.md substitution table): they are
    deterministic toys, and the experiments treat their idealised versions
    as the specification rather than claiming cryptographic strength. *)

val xor_encrypt : key:int -> width:int -> int -> int
(** One-time pad over [width]-bit words: [msg XOR key], both reduced mod
    [2^width]. Self-inverse. *)

val xor_decrypt : key:int -> width:int -> int -> int

val prg_expand : seed:int -> len:int -> int list
(** Deterministic xorshift-style expansion of a seed into [len] words.
    NOT cryptographically secure — a stand-in exercising the same code
    paths. *)

val commit : msg:int -> nonce:int -> int
(** Toy commitment [digest (msg, nonce)]. Hiding is {e assumed}
    (simulated); binding holds up to digest collisions. *)

val commit_verify : commitment:int -> msg:int -> nonce:int -> bool
