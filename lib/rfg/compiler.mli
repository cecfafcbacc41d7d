(** Policy-language front end (§4: "such a system should have language
    support for compiling a high-level policy description (or router
    configuration file) into a compact route-flow graph").

    A config names its owner, the promises it makes and the neighbours
    whose routes feed them:

    {v
    policy for AS1 {
      promise to AS100 = shortest-from AS10 AS11 AS12;
      promise to AS200 = prefer AS11 AS12 unless-shorter AS10;
      neighbors AS10 AS11 AS12;
    }
    v}

    Promise bodies: [shortest], [shortest-from ASn...], [within-hops n],
    [no-longer-than-others], [export-if-any ASn...],
    [prefer ASn... unless-shorter ASm].

    At most one [neighbors ASn...;] statement, naming each AS once;
    without one the neighbour set is empty.  Route-maps ([import]/[export] blocks) are not part of
    the language: PVR verifies promises, not how a router ranks routes,
    and such a block fails to parse at its line. *)

type config = {
  owner : Pvr_bgp.Asn.t;
  promises : (Pvr_bgp.Asn.t * Promise.t) list;
  neighbors : Pvr_bgp.Asn.t list;  (** in the order the statement lists them *)
}

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (config, error) result

val compile : config -> (Pvr_bgp.Asn.t * Promise.t * Rfg.t) list
(** One route-flow graph per promise (beneficiary, promise, graph), built
    with {!Promise.reference_rfg} over the config's [neighbors]. *)

val render : config -> string
(** Pretty-print a config back to (re-parseable) source. *)
