(** The [pvr query] language: a hand-written lexer and recursive-descent
    parser over the (prover, promise-vertex, epoch) triple space.

    Grammar (keywords case-insensitive):

    {v
    query   := source [ "where" expr ]
               [ "order" "by" key ["asc"|"desc"] ] [ "limit" INT ]
    source  := "violations" | "convictions" | "rows"
    expr    := expr ("and"|"or") expr | "not" expr | "(" expr ")" | atom
    atom    := ("epoch"|"evidence"|"leaked"|"excess") CMP INT
             | ("prover"|"beneficiary") ("="|"!=") ASN
             | "prefix" ("="|"in") PREFIX
             | ("behaviour"|"kind") ("="|"!=") NAME
             | ("detected"|"convicted") [("="|"!=") ("true"|"false")]
    v}

    [ASN] is [17] or [AS17]; [PREFIX] is CIDR ([10.0.0.0/8]); behaviour and
    kind names are validated at parse time against {!Pvr.Adversary.all} and
    {!Pvr.Evidence.all_kinds}.  ["violations"] restricts to detected rows
    and ["convictions"] to convicted rows before the [where] clause runs. *)

module Bgp = Pvr_bgp

type source = Violations | Convictions | Rows
type cmp = Lt | Le | Gt | Ge | Eq | Ne
type int_field = F_epoch | F_evidence | F_leaked | F_excess
type asn_field = F_prover | F_beneficiary
type bool_field = F_detected | F_convicted

type expr =
  | True  (** absent [where] clause *)
  | Int_cmp of int_field * cmp * int
  | Asn_cmp of asn_field * bool * int
      (** [true] is [=], [false] is [!=]; the int is the ASN *)
  | Prefix_eq of Bgp.Prefix.t
  | Prefix_in of Bgp.Prefix.t
  | Behaviour_is of bool * string
  | Kind_has of bool * string
  | Bool_is of bool_field * bool
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

type order_key =
  | By_epoch
  | By_prover
  | By_beneficiary
  | By_prefix
  | By_evidence
  | By_leaked
  | By_excess

type t = {
  q_source : source;
  q_where : expr;
  q_order : (order_key * bool) option;  (** [true] = ascending *)
  q_limit : int option;
}

type error = { pos : int; msg : string }
(** [pos] is a byte offset into the query string. *)

val render_error : query:string -> error -> string
(** The query echoed with a caret under the offending position. *)

val parse : string -> (t, error) result

val to_string : t -> string
(** Canonical form (fully parenthesized); [parse (to_string q)]
    reconstructs [q] exactly. *)

val eval : expr -> Row.t -> bool

val admits : t -> Row.t -> bool
(** Source restriction and [where] clause together. *)
