(** Gao–Rexford commercial relationships and their policy encoding.

    The paper (§III.A) frames BGP as "always policy-based", citing Gao
    & Rexford's stability conditions; route-analysis surveys
    (arXiv:0908.0175) study the resulting valley-free route sets.  This
    module maps an abstract topology onto customer/provider/peer
    relationships and builds the corresponding import/export
    {!Bgp_policy.Policy} chains out of the existing combinators — no
    new policy mechanism.

    Encoding (one community namespace, local significance only):
    import from a neighbor tags the route with where it was learned
    ([learned-from-customer/peer/provider]) and sets LOCAL_PREF so
    customer routes beat peer routes beat provider routes; export to a
    peer or provider rejects routes tagged peer- or provider-learned
    (the valley-free rule), while export to a customer passes
    everything.  Locally originated routes carry no tag and export
    everywhere. *)

(** How the {e neighbor} relates to this router. *)
type relation = Customer | Peer | Provider

val tier : int -> int
(** [tier i] = floor(log2 (i+1)): vertex 0 is the lone tier-0 core,
    1–2 are tier 1, 3–6 tier 2, and so on.  A deterministic,
    topology-agnostic stand-in for provider hierarchy depth. *)

val relation_between : self:int -> neighbor:int -> relation
(** By tier: equal tiers peer; the lower tier is the provider.  Since
    tiers are monotone in the vertex index, the customer→provider
    digraph is acyclic on every topology (a Gao–Rexford stability
    precondition). *)

val local_pref : relation -> int
(** Customer 200, peer 150, provider 100 (prefer-customer ranking,
    Gao–Rexford condition on route selection). *)

val import_policy : relation -> Bgp_policy.Policy.t
(** Tag the route with a community naming the relation, and set
    {!local_pref}. *)

val export_policy : relation -> Bgp_policy.Policy.t
(** To a customer: accept everything.  To a peer or provider: reject
    routes tagged peer- or provider-learned (valley-free export). *)

val reachable : n:int -> edges:(int * int) list -> origin:int -> bool array
(** Pure-graph oracle for the stable state: which vertices hold a route
    to [origin]'s prefix once the network with these policies
    converges.  Worklist fixed point over (vertex, learned-class) with
    the valley-free export rule; used to verify the simulated network
    against the theory it encodes. *)
