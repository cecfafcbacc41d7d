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

type component_opening = { raw : string; opening : C.Commitment.opening }
(** An opened component: [raw] is the committed byte string (which the
    opening re-proves), already decoded from the opening value. *)

type disclosure = {
  vertex : Rfg.vertex_id;
  leaf : string;                       (** the committed I(x) triple *)
  proof : Pvr_merkle.Prefix_tree.proof;
  preds : component_opening option;    (** encoded predecessor id list *)
  succs : component_opening option;    (** encoded successor id list *)
  payload : component_opening option;
  bit_openings : (int * C.Commitment.opening) list;
      (** for operator vertices: openings of the evidence bits this viewer
          is entitled to (all bits for the beneficiary, the bit at the
          viewer's own route length for a provider) *)
}

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

(** {2 Verification} *)

val check_disclosure_integrity :
  root:string -> disclosure -> bool
(** Structural validity: Merkle proof against the root and every opened
    component against its digest in the leaf triple.  Any viewer runs this
    on everything it receives before semantic checks. *)

val check_provider :
  Keyring.t ->
  me:Bgp.Asn.t ->
  my_announce:Wire.announce Wire.signed ->
  commit:Wire.commit Wire.signed ->
  disclosures:disclosure list ->
  Evidence.t list
(** A providing neighbor N_i: its input variable must be committed with
    exactly the route it announced, and every operator consuming that
    variable must have its evidence bit at |r_i| set. *)

val check_beneficiary :
  Keyring.t ->
  me:Bgp.Asn.t ->
  commit:Wire.commit Wire.signed ->
  disclosures:disclosure list ->
  export:Wire.export Wire.signed option ->
  Evidence.t list
(** The beneficiary B: navigate from its output variable to the producing
    operator, check the output value against the operator type and its
    committed bit evidence, and check export/provenance consistency. *)

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

val of_evidence_disclosure : Evidence.graph_disclosure -> disclosure
(** Convert back from the self-contained form evidence carries. *)

val replay_offence :
  Keyring.t ->
  commit:Wire.commit Wire.signed ->
  disclosures:Evidence.graph_disclosure list ->
  Evidence.graph_offence ->
  bool
(** Third-party replay of a {!Evidence.Graph_violation}: re-verify every
    disclosure against the committed root and re-derive the offence from
    scratch.  [true] = the offence is confirmed (the {!Judge} then returns
    [Guilty]); [false] = the evidence does not support the accusation.
    A witness announce is the caller's to validate: the {!Judge} checks it
    is an input A had to admit. *)
