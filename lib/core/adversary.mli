(** Byzantine prover behaviours (§3's threat model: "an unknown subset of
    the networks is Byzantine and can behave arbitrarily").

    Each behaviour corrupts one aspect of the minimum-operator protocol run;
    experiment E8 injects each into a Figure-1 topology and records which
    neighbor detects it, what evidence is produced, and the {!Judge}'s
    verdict.  {!expected_detectors} documents the intended detection
    surface, which the test suite asserts. *)

type behaviour =
  | Honest
  | Export_nonminimal
      (** bits committed honestly, but a longest (not shortest) input is
          exported — B detects via {!Evidence.Nonminimal_export} *)
  | False_bits
      (** bits claim the shortest input is the exported (long) one — only
          the providers with shorter routes can detect ({!Evidence.False_bit}) *)
  | Equivocate
      (** different commitments to different neighbors — uncovered by
          gossip ({!Evidence.Equivocation}) *)
  | Suppress_export
      (** commitments and provider disclosures are honest, but nothing is
          exported to B — B raises {!Evidence.Missing_export_claim}; the
          adversary stonewalls the judge *)
  | Refuse_disclosure
      (** one providing neighbor receives no opening —
          {!Evidence.Missing_disclosure_claim} *)
  | Forge_provenance
      (** exports a fabricated route with a provenance announcement whose
          signature cannot verify — {!Evidence.Bad_provenance} *)

val all : behaviour list
val to_string : behaviour -> string
val behaviour_of_string : string -> behaviour option
(** Inverse of {!to_string}. *)

type detector = Beneficiary | Provider of Pvr_bgp.Asn.t | Gossip

val expected_detectors :
  behaviour -> inputs:(Pvr_bgp.Asn.t * int) list -> detector list
(** Who must detect the misbehaviour, given the providing neighbors and
    their route lengths (empty for [Honest]). *)

(** {2 Strategy zoo}

    A {!strategy} lifts the single-round behaviours into seeded,
    deterministic whole-topology policies, pluggable into the engine the way
    {!Pvr.Runner.fault_profile}s already are: the engine asks
    {!plan_round} what each (prover, prefix) vertex does at each wire
    epoch.  Plans are pure functions of (seed, vertex, epoch) — never of
    scheduling or caching. *)

type strategy =
  | Sweep of behaviour  (** every prover runs [behaviour] every round *)
  | Coalition of { size : int; behaviour : behaviour }
      (** like [Sweep], and the first [size] providers (by ASN) of each
          vertex pool their disclosed bits for the leakage audit *)
  | Cross_shard of { shards : int; target : int }
      (** equivocate exactly on the vertices whose seeded hash lands in
          bucket [target] of [shards] — a fixed subset of the vertex set,
          cutting across provers and prefixes *)
  | Adaptive_low_value of { cheat : behaviour }
      (** run [cheat] only on low-value /24-tier prefixes (the tiered
          address plan of {!Pvr_bgp.Topology.tiered_prefixes}), honest on
          /8 and /16 *)
  | Timing_probe of { period : int }
      (** stonewall ([Suppress_export] + [comply]) on a seeded 1-in-[period]
          subset of (vertex, epoch) pairs, answering the judge honestly when
          challenged — probes challenge timing without risking conviction *)

type round_plan = {
  rp_behaviour : behaviour;
  rp_comply : bool;  (** answer judge challenges honestly *)
  rp_coalition : int;  (** providers pooling views in the leakage audit *)
}

val perturb : round_plan -> Proto_min.draft -> Proto_min.draft
(** The honest draft rewritten under [plan], before anything is signed.
    Lying bit vectors go through the draft's committer (fresh nonces).
    [rp_comply] makes the stonewalling variants ([Suppress_export],
    [Refuse_disclosure]) answer the judge honestly: the omission is still
    detected, but the challenge exonerates — the "lost messages never
    convict" surface a {!Timing_probe} strategy probes. *)

val all_strategies : strategy list
(** One canonical instance per family — what [pvr adversary --strategy all]
    and the E14 matrix iterate. *)

val strategy_to_string : strategy -> string

val strategy_of_string : string -> strategy option
(** Canonical names (["honest"], ["coalition-false-bits"],
    ["cross-shard-equivocate"], ["adaptive-low-value"], ["timing-probe"]),
    plus ["sweep-<behaviour>"] / ["coalition-<behaviour>"] / bare behaviour
    names. *)

val plan_round :
  strategy ->
  seed:string ->
  prover:Pvr_bgp.Asn.t ->
  prefix:Pvr_bgp.Prefix.t ->
  epoch:int ->
  round_plan
(** Deterministic: equal arguments give equal plans.  Increments
    ["adversary.plans"] and, for non-honest plans, ["adversary.cheats"] or
    ["adversary.stonewalls"]. *)
