(** Route-flow-graph operators (§2.1).

    "A rule is an operation that takes some set of input routes and emits a
    set of output routes (which may be a single route, or no route at
    all)."  Operators consume the values of their predecessor variables (in
    edge order) and produce one value.

    These are the operators PVR can verify: each has evidence bits in
    [Proto_graph].  The paper builds protocols for {!Exists} (§3.2) and
    {!Min_path_length} (§3.3); {!Within_hops_of_min} and {!Shorter_of}
    reuse the §3.3 threshold bits for promise 3 and the Figure-2 policy. *)

type t =
  | Exists
      (** Emit one input route (the first available) iff any input variable
          holds a route — §3.2. *)
  | Min_path_length
      (** Emit the input routes of minimal AS-path length — §3.3. *)
  | Within_hops_of_min of int
      (** Keep routes at most n hops longer than the shortest input —
          promise 3 of §2. *)
  | Shorter_of
      (** Binary: emit the first input if it beats the second on path
          length, else the second — the Figure-2 combiner ("unless N1
          provides a shorter route"). *)

val arity : t -> int option
(** Fixed arity if the operator requires one ([Shorter_of] is binary);
    [None] when variadic. *)

val apply : t -> Pvr_bgp.Route.t list list -> Pvr_bgp.Route.t list
(** Evaluate on the ordered list of input-variable values.
    @raise Invalid_argument if a fixed arity is violated. *)

val name : t -> string
(** Stable identifier used in commitments and disclosures. *)

val encode : t -> string
(** Injective byte encoding (committed to in the vertex MHT). *)

val decode : string -> t option
(** Inverse of {!encode}; [None] on malformed input and on any operator
    outside {!t}.  Verifiers use it to interpret a disclosed operator
    payload. *)

val pp : Format.formatter -> t -> unit
