(** The generalized PVR mechanism over route-flow graphs (§3.5–3.7).

    A commits to its whole route-flow graph in a prefix-free Merkle hash
    tree ({!Pvr_merkle.Prefix_tree}): one leaf per vertex x, at the path
    {!Pvr_merkle.Bitstring.of_id}[ x].  Following §3.7, the committed leaf
    value is the triple
    I(x) = (c(preds), c(succs), c(payload)) — three independent
    commitments, so "the three types of information can be revealed
    independently, depending on the authorization of the querying
    neighbor".

    The payload of a variable vertex is its set of routes; the payload of an
    operator vertex is "the operator type and the evidence" — where the
    evidence embeds the §3.2/§3.3 bit mechanism per operator: an
    existential bit for [Exists], threshold bits b_1..b_k for
    [Min_path_length] (and friends), and a bit vector per input branch for
    [Shorter_of].  The bit openings let an authorized neighbor check an
    operator's output against its committed evidence {e without seeing the
    input routes}.

    Disclosure is driven by an {!Access_control.t}: {!disclose} assembles,
    for one viewer, exactly the components α authorizes, each
    authenticated against the signed root. *)

module Bgp = Pvr_bgp
module C = Pvr_crypto
module Rfg = Pvr_rfg.Rfg

val scheme : string
(** ["graph"]. *)

type component = Evidence.graph_component
(** An opened component: the committed byte string and its opening. *)

type disclosure = Evidence.graph_disclosure
(** One vertex as a viewer receives it: its committed I(x) triple and
    Merkle proof, each component α lets the viewer open, and, for an
    operator, the evidence-bit openings its role entitles it to (all bits
    for the beneficiary, the bit at its own route length for a provider).
    These are the bytes evidence carries. *)

(** {2 Payload codecs}

    The committed byte formats, in {!Pvr_crypto.Codec}'s list format.  They
    reach a verifier from the prover, so each decoder returns [None] on any
    malformed input. *)

val encode_var_payload : Bgp.Route.t list -> string
val decode_var_payload : string -> string list option
(** ["var"], then each route's {!Pvr_bgp.Route.encode}. *)

val encode_op_payload : Pvr_rfg.Operator.t -> string list -> string
val decode_op_payload : string -> (string * string list) option
(** ["op"], the {!Pvr_rfg.Operator.encode}d operator and its bit digests. *)

val encode_comp_payload : string -> string
val decode_comp_payload : string -> string option
(** ["comp"] and a composite's 32-byte inner root. *)

val leaf_digests : string -> (string * string * string) option
(** The leaf triple I(x): three 32-byte component digests. *)

(** {2 The prover's draft}

    Everything an honest A sends in a graph round, before anything is
    signed: {!Runner.sign} signs the commitment and the export in A's
    per-signer batch. *)

type committed
(** The committed graph: every vertex's I(x) record and the prefix tree
    over them. *)

type draft = {
  dr_prover : Bgp.Asn.t;
  dr_beneficiary : Bgp.Asn.t;
  dr_epoch : Wire.epoch;
  dr_prefix : Bgp.Prefix.t;
  dr_inputs : (Bgp.Asn.t * Bgp.Route.t) list;
      (** the admitted inputs, in arrival order *)
  dr_alpha : Access_control.t;  (** who may see which vertex components *)
  dr_committed : committed;
  dr_export : Proto_min.export_plan option;  (** the export B is sent *)
}

val draft :
  max_path_len:int ->
  C.Drbg.t ->
  prover:Bgp.Asn.t ->
  beneficiary:Bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Bgp.Prefix.t ->
  rfg:Rfg.t ->
  alpha:Access_control.t ->
  inputs:(Bgp.Asn.t * Bgp.Route.t) list ->
  draft
(** Honest A.  [inputs] must already be admitted (validly signed, at most
    [max_path_len] hops).  A evaluates the graph on them, commits every
    vertex with k = [max_path_len] evidence bits per threshold operator,
    builds the tree, and exports B's output route with its input as
    provenance. *)

val root : draft -> string
(** The committed tree's root: the one commitment A signs. *)

val disclose :
  ?role:[ `Beneficiary | `Provider of int ] ->
  draft ->
  alpha:Access_control.t ->
  viewer:Bgp.Asn.t ->
  disclosure list
(** Everything α lets the viewer see, authenticated.  [role] controls the
    evidence bits (which are revealed per protocol role, not per α):
    beneficiaries receive all bits of each visible operator (§3.3 "A also
    reveals all the bits b_i to B"); [`Provider len] receives only the bit
    at its own route length.  Default: beneficiary. *)

(** {2 Verification}

    Each {!Evidence.graph_offence} has one definition, {!offence_holds},
    over a signed graph commit and the disclosures the evidence carries.
    The parties raise a {!Evidence.Graph_violation} only when it holds,
    and the {!Judge} convicts when the commit verifies, the disclosures
    are {!authenticated} and it holds.  Each offence is bound to the
    statements it names:

    - [Wrong_input_value {var; witness}]: [var] is the witness signer's
      input variable, its committed routes lack the witness's route, and
      the witness is an input A had to admit ({!Proto_common.valid_input}).
    - [False_evidence_bit {op; index; witness}]: the witness signer's input
      variable lists [op] among its successors, the witness's route length
      forces bit [index] of [op] to 1, the bit opens to 0, and the witness
      is admissible.
    - [Output_evidence_mismatch {out_var; op; _}]: [op] is [out_var]'s
      sole predecessor, and [out_var]'s committed routes contradict what
      [op]'s opened bits attest: a route or none, and each route's length
      (the minimum m for [Min_path_length] and [Shorter_of], m to m + n
      hops for [Within_hops_of_min n]).  Bits attest nothing when an
      opening they depend on is withheld.
    - [Export_not_committed {out_var; export}]: the export binds to the
      commit for its own recipient ({!Proto_common.export_binds}) with
      valid {!Proto_common.export_provenance}, [out_var] is that
      recipient's output variable, and its committed routes lack the
      exported route. *)

val check_disclosure_integrity :
  root:string -> disclosure -> bool
(** Structural validity: Merkle proof against the root and every opened
    component against its digest in the leaf triple. *)

val authenticated : commit:Wire.commit Wire.signed -> disclosure list -> bool
(** The commit is a ["graph"] commit of one root and every disclosure
    passes {!check_disclosure_integrity} against it.  Any viewer runs this
    on everything it receives before semantic checks; the commit's
    signature is the caller's to verify. *)

val offence_holds :
  Keyring.t ->
  commit:Wire.commit Wire.signed ->
  disclosures:disclosure list ->
  Evidence.graph_offence ->
  bool
(** Whether the {!authenticated} [disclosures] prove the offence against
    the commit's signer, as defined above.  Signatures are checked last,
    so an offence that the disclosures refute costs no RSA operation. *)

val check_provider :
  Keyring.t ->
  me:Bgp.Asn.t ->
  my_announce:Wire.announce Wire.signed ->
  commit:Wire.commit Wire.signed ->
  disclosures:disclosure list ->
  Evidence.t list
(** A providing neighbor N_i: its input variable must be committed with
    the route it announced, and every operator its variable feeds must
    have its evidence bit at |r_i| set.  A missing or unauthenticated
    disclosure is a {!Evidence.Missing_disclosure_claim}. *)

val check_beneficiary :
  Keyring.t ->
  me:Bgp.Asn.t ->
  commit:Wire.commit Wire.signed ->
  disclosures:disclosure list ->
  export:Wire.export Wire.signed option ->
  Evidence.t list
(** The beneficiary B: navigate from its output variable to the producing
    operator, check the committed output against the operator's bit
    evidence, and check the export's provenance and that it is committed.
    An export that does not {!Proto_common.export_binds} to the commit and
    B is no export.  A missing disclosure, or a missing export while the
    output is non-empty, is a {!Evidence.Missing_export_claim}. *)

(** {2 Composite operators (§4 structural privacy)}

    A composite vertex ({!Pvr_rfg.Rfg.add_composite}) commits its internals
    in a {e nested} prefix tree: the vertex's payload reveals only the inner
    root, so an unauthorized viewer learns nothing about the inner
    structure — "a composite operator whose internal structure is only
    revealed to authorized neighbors".  Inner vertex ids are namespaced
    ["composite/inner"], and α is consulted on the namespaced ids. *)

val composite_inner_root : draft -> composite:Rfg.vertex_id -> string option
(** The nested tree's root, if the vertex is a composite. *)

val disclose_composite :
  draft ->
  alpha:Access_control.t ->
  viewer:Bgp.Asn.t ->
  composite:Rfg.vertex_id ->
  (string * disclosure list) option
(** [(inner_root, inner disclosures the viewer may see)]. *)

val check_composite :
  outer_root:string ->
  composite_disclosure:disclosure ->
  inner_root:string ->
  inner:disclosure list ->
  bool
(** Authenticate a composite's internals: the composite vertex must verify
    against the outer root with a payload committing to [inner_root], and
    every inner disclosure must verify against [inner_root]. *)
