"""The combinatorial index sets attached to a finite abelian group and
the structure map between the monoids they span.

Over a group G the generators of interest are pairs (I, phi) with I a
nontrivial elementary subgroup, collapsed to pairs (I, D) with
D = I v <phi>, which makes D/I cyclic.  Locally, over the Sylow p-part
G_p of G, the targets are tuples (p, H, Istar, Dstar) with G/H cyclic
of order prime to p and (Istar, Dstar) an (I, D) pair inside G_p.  G_p
is canonically the maximal p-quotient of G, and the image of a
subgroup S there is its p-part S_p = m S, for m the prime-to-p part of
#G.  The structure map beta sends (I, D) to the sum of basis vectors
over all target tuples with D inside H, Istar = I_p and Dstar = D_p,
and the analysis below certifies its decomposition law, injectivity on
the irreducible locus, irreducibility of the generator images, and the
freeness verdict for the image monoid.

Each D is built once per I, by one HNF from the first phi that reaches
it; the other phi that generate D/I, the canonical lifts of k phi with
gcd(k, [D:I]) = 1, are mapped to it by reduction alone.  Every
subgroup the index sets hold, p-parts included, is the object
enumerate_subgroups made for its basis, so its order, hash and
exponent are computed once per command, and the inertia filter, "D
cyclic" and "G/H cyclic" are read off element orders with no Smith
form.  The irreducibility check searches the image monoid trying only
the generators that hold the target's lowest bit (_MonoidMembership).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

from . import intmat as im
from .abelian import (
    FinAbGroup,
    GroupElement,
    Subgroup,
    decomposition_subgroup,
    enumerate_subgroups,
    p_split,
    prime_factors,
)
from .errors import CapacityError, ScopeError

# decomposition searches and bounded injectivity sweeps refuse to spawn
# more candidate vectors than this
VECTOR_CAP = 400_000

# build_pair_sets refuses a group with more (I, phi) pairs, or more (inertia
# group, subgroup) combinations, than this, before it builds any pair.
# The (I, phi) pairs bound the (I, D) pairs, and the local pairs over
# each Sylow p-part are among them.
PAIR_CAP = 200_000


@dataclass(frozen=True)
class InertiaPair:
    """(I, phi): nontrivial elementary inertia plus a coset of G/I,
    stored through its canonical (lex-least) lift.  build_pair_sets,
    the only constructor, picks I and the lift itself."""

    inertia: Subgroup
    frob: GroupElement


@dataclass(frozen=True)
class DecompositionPair:
    """(I, D) with I nontrivial elementary, I inside D, D/I cyclic;
    build_pair_sets, the only constructor, builds each D once, from the
    first (I, phi) that reaches it."""

    inertia: Subgroup
    dec: Subgroup

    def sort_key(self):
        return (self.inertia.basis, self.dec.basis)


@dataclass(frozen=True)
class LocalTuple:
    """(p, H, Istar, Dstar): H with G/H cyclic of order prime to p, and
    a pair of subgroups of the Sylow p-part of G with Istar nontrivial
    and Dstar/Istar cyclic."""

    p: int
    h: Subgroup
    istar: Subgroup
    dstar: Subgroup

    def sort_key(self):
        return (self.p, self.h.basis, self.istar.basis, self.dstar.basis)


@dataclass(frozen=True)
class PairSets:
    """The index sets of one group that the verify sweeps read, in
    canonical order.

    subgroups: every subgroup, as enumerate_subgroups lists them;
    stilde: the (I, phi) generator pairs; s_pairs: the (I, D) pairs;
    projection[i]: index into s_pairs of the image of stilde[i].
    """

    group: FinAbGroup
    subgroups: tuple
    stilde: tuple
    s_pairs: tuple
    projection: tuple


@dataclass(frozen=True)
class SetFamily(PairSets):
    """All index sets of one group, in canonical order: the PairSets and

    t_tuples: the target index set;
    s_prime / s_dprime: indices into s_pairs of the irreducible locus
    (D noncyclic or #I a prime power) and of the prime-power-#I locus.
    """

    t_tuples: tuple
    s_prime: tuple
    s_dprime: tuple

    @cached_property
    def _p_parts(self) -> dict:
        return {}

    @cached_property
    def _interned(self) -> dict:
        return {s.basis: s for s in self.subgroups}

    def p_part(self, sub: Subgroup, p: int) -> Subgroup:
        """_p_part(sub, p) as the enumerated subgroup of its basis, taken
        once per (p, sub) for _beta_values and the decomposition law."""
        key = (p, sub)
        if key not in self._p_parts:
            self._p_parts[key] = self._interned[_p_part(sub, p).basis]
        return self._p_parts[key]

    @property
    def counts(self):
        return {
            "stilde": len(self.stilde),
            "s": len(self.s_pairs),
            "t": len(self.t_tuples),
            "s_prime": len(self.s_prime),
            "s_dprime": len(self.s_dprime),
        }


def _pair_sets(group: FinAbGroup, inertias, interned):
    """(stilde, s_pairs, projection) of a group whose nontrivial
    elementary subgroups are inertias; interned maps a basis to the
    enumerated subgroup that holds it.

    Every D with D/I cyclic is I + <x> for the residues x of I's basis
    whose image generates D/I, the canonical lifts of k x with
    gcd(k, [D:I]) = 1 for any one of them.  So each D is built once, by
    one HNF from the first residue that reaches it, its other residues
    are mapped to it by reduction alone, and it is the enumerated
    subgroup of its basis; no pair is tested."""
    pivots = range(group.rank)
    stilde, s_pairs, projection = [], [], []
    for inertia in sorted(inertias, key=lambda s: s.basis):
        basis = inertia.basis
        dec_of = {}  # residue of I's basis -> D = I + <residue>
        for x in im.hnf_residues(basis):
            if x in dec_of:
                continue
            dec = interned[decomposition_subgroup(inertia, GroupElement(group, x)).basis]
            f = dec.order // inertia.order
            for k in range(f):
                if math.gcd(k, f) == 1:
                    # the canonical lift of k x (see abelian.canonical_lift)
                    _, lift = im.reduce_against(basis, pivots, [k * c for c in x])
                    dec_of[tuple(lift)] = dec
        decs = sorted(set(dec_of.values()), key=lambda s: s.basis)
        index = {dec: len(s_pairs) + i for i, dec in enumerate(decs)}
        s_pairs += [DecompositionPair(inertia, dec) for dec in decs]
        for x in sorted(dec_of):
            stilde.append(InertiaPair(inertia, GroupElement(group, x)))
            projection.append(index[dec_of[x]])
    return tuple(stilde), tuple(s_pairs), tuple(projection)


def _p_part(sub: Subgroup, p: int) -> Subgroup:
    """The Sylow p-part of sub, m sub for m the prime-to-p part of #G:
    also the image of sub in the maximal p-quotient of G, which the
    Sylow p-part of G maps onto isomorphically."""
    m = p_split(sub.group.order, p)[1]
    rows = [[m * x for x in b] for b in sub.basis]
    return Subgroup(sub.group, im.hnf(rows, sub.group.rank, sub.group.factors))


def build_pair_sets(group: FinAbGroup) -> PairSets:
    """The subgroups, the (I, phi) and (I, D) pairs and the projection
    between them.  Past PAIR_CAP (I, phi) pairs, counted as the sum of
    [G:I], or PAIR_CAP (inertia group, subgroup) combinations:
    CapacityError, before any pair is built."""
    subs = enumerate_subgroups(group)
    inertias = [s for s in subs if not s.is_trivial and s.is_elementary]
    if len(inertias) * len(subs) > PAIR_CAP:
        raise CapacityError(
            f"{len(inertias)} inertia groups times {len(subs)} subgroups "
            f"exceed the pair cap {PAIR_CAP}"
        )
    npairs = sum(group.order // inertia.order for inertia in inertias)
    if npairs > PAIR_CAP:
        raise CapacityError(f"{npairs} (I, phi) pairs exceed the pair cap {PAIR_CAP}")
    interned = {s.basis: s for s in subs}
    return PairSets(group, tuple(subs), *_pair_sets(group, inertias, interned))


def build_sets(group: FinAbGroup) -> SetFamily:
    """Enumerate every index set of the group: the PairSets of
    build_pair_sets and the monoid's target tuples and loci.  The local
    pairs over p are the (I, D) pairs with D a p-group, the pairs of
    the Sylow p-part of G, so the subgroups are enumerated once."""
    pairs = build_pair_sets(group)
    # (H, #G/H) for every H with G/H cyclic, tested once per H
    cyclic_quotients = [
        (h, group.order // h.order) for h in pairs.subgroups if h.quotient_is_cyclic
    ]
    t_tuples = []
    for p in sorted(prime_factors(group.order)):
        local = [pr for pr in pairs.s_pairs if p_split(pr.dec.order, p)[1] == 1]
        t_tuples += [
            LocalTuple(p, h, pr.inertia, pr.dec)
            for h, quotient_order in cyclic_quotients
            if quotient_order % p
            for pr in local
        ]
    t_tuples.sort(key=LocalTuple.sort_key)
    s_prime, s_dprime = [], []
    for i, pr in enumerate(pairs.s_pairs):
        prime_power = len(prime_factors(pr.inertia.order)) == 1
        if prime_power or not pr.dec.is_cyclic:
            s_prime.append(i)
        if prime_power:
            s_dprime.append(i)
    return SetFamily(
        pairs.group,
        pairs.subgroups,
        pairs.stilde,
        pairs.s_pairs,
        pairs.projection,
        tuple(t_tuples),
        tuple(s_prime),
        tuple(s_dprime),
    )


def _beta_values(family: SetFamily, pairs) -> list:
    """beta of each (I, D) pair, a 0/1 vector over the target tuples held
    as a bitmask: bit i is set when t_tuples[i] = (p, H, Istar, Dstar)
    has D inside H and the Sylow p-parts of I and D equal to Istar and
    Dstar.  A D recurs under many I, so each subgroup's p-part is taken
    once per prime (family.p_part, which the decomposition law shares)
    and each D <= H is tested once."""
    targets = family.t_tuples
    # the p-parts and the target tuples hold the enumerated subgroups, so
    # the comparison is a dict lookup, and only the target tuples with
    # matching p-parts reach the HNF containment test D <= H
    by_parts = {}
    h_ids = {}
    h_of = []  # target index -> index of its H among the distinct H
    for i, t in enumerate(targets):
        by_parts.setdefault((t.p, t.istar, t.dstar), []).append(i)
        h_of.append(h_ids.setdefault(t.h, len(h_ids)))
    inside = {}  # D -> {index of H: D <= H}
    out = []
    for pair in pairs:
        mask = 0
        below = inside.setdefault(pair.dec, {})
        for p in prime_factors(pair.inertia.order):
            key = (p, family.p_part(pair.inertia, p), family.p_part(pair.dec, p))
            for i in by_parts.get(key, ()):
                j = h_of[i]
                if j not in below:
                    below[j] = pair.dec.is_subset_of(targets[i].h)
                if below[j]:
                    mask |= 1 << i
        out.append(mask)
    return out


def cardinality_formulas(group: FinAbGroup):
    """Closed-form (#S, #T) for a cyclic group, from the exponents of
    its order; a noncyclic group is out of scope."""
    if not group.is_cyclic:
        raise ScopeError("cardinality formulas need a cyclic group")
    exps = list(prime_factors(group.order).values())
    s_val = 1
    t_val = 1
    for e in exps:
        s_val *= (e + 1) * (e + 2) // 2
        t_val *= e + 1
    s_val -= t_val
    t_val = sum(exps) * t_val // 2
    return s_val, t_val


class _MonoidMembership:
    """Decides membership in the monoid generated by 0/1 generator
    vectors, by depth-first search over dominated generator subtractions
    with a shared memo.

    Vectors are bitmasks, as _beta_values builds them: g <= v is
    g & v == g, and v - g is v ^ g.  A dominated 0/1 vector subtracted
    from a 0/1 vector leaves a 0/1 vector, so the search never leaves
    bitmasks.  Whether a vector is a sum of generators does not depend
    on the order they are tried in.

    Only the generators whose lowest set bit is that of v are tried
    (by_low[v & -v]), and this loses nothing.  The summands of any
    decomposition of the 0/1 vector v have disjoint supports, so exactly
    one of them holds the lowest bit of v; being <= v, it holds no lower
    bit, so that bit is its own lowest.  A sum of generators equal to v
    thus has a summand g in by_low[v & -v], and v - g is the sum of the
    others; and v = a + b with a and b nonzero members splits into
    generators the same way, the summand g holding the lowest bit
    leaving v - g nonzero, a sum of the others.
    """

    def __init__(self, generators):
        self.by_low = {}
        for g in sorted(set(generators) - {0}, reverse=True):
            self.by_low.setdefault(g & -g, []).append(g)
        self.memo = {}

    def _contains(self, v: int) -> bool:
        if not v:
            return True
        if v in self.memo:
            return self.memo[v]
        self.memo[v] = False  # cuts cycles; sums only shrink, so safe
        out = False
        for g in self.by_low.get(v & -v, ()):
            if g & v == g and self._contains(v ^ g):
                out = True
                break
        self.memo[v] = out
        return out

    def decomposable(self, v: int) -> bool:
        """v = a + b with both parts nonzero members."""
        for g in self.by_low.get(v & -v, ()):
            if g & v == g:
                rest = v ^ g
                if rest and self._contains(rest):
                    return True
        return False


@dataclass(frozen=True)
class FreenessReport:
    family: SetFamily
    beta_values: tuple
    decomposition_ok: bool
    injective_on_irreducibles: bool
    irreducibility_ok: bool
    bounded_injectivity_ok: bool | None
    bound: int
    bound_reduced: bool
    verdict: str
    counts_consistent: bool

    @property
    def bounded_injectivity_expected(self) -> bool:
        # a collision among small combinations is a witness against
        # freeness, so it is only a failure when the verdict is FREE
        return self.verdict == "FREE"

    @property
    def all_checks_pass(self) -> bool:
        return (
            self.decomposition_ok
            and self.injective_on_irreducibles
            and self.irreducibility_ok
            and (self.bounded_injectivity_ok or not self.bounded_injectivity_expected)
            and self.counts_consistent
        )


def analyze_monoid(
    group: FinAbGroup, bound: int | None = None
) -> FreenessReport:
    """Full structural analysis of the image monoid of one group.

    Checks performed: the decomposition law for every (I, D) with D
    cyclic and #I not a prime power; pairwise distinctness of the images
    of the irreducible locus; irreducibility of each such image inside
    the image monoid by exhaustive dominated search; for FREE groups,
    injectivity of the restricted map on all vectors of coordinate sum
    <= bound; and the freeness verdict with its cardinality certificate.

    With bound=None the default sum bound 3 shrinks deterministically
    until the candidate-vector count fits the cap; an explicit bound is
    honored strictly and may raise a capacity error, NOT-FREE groups
    included.  Their report never prints the bounded check, so they run
    no sweep and bounded_injectivity_ok is None.  Images independent
    over GF(2), such as a p-group's distinct single bits and those of
    every FREE group checked so far, pass it without a sweep.
    """
    if bound is not None and bound < 2:
        raise ScopeError("bound must be at least 2")
    family = build_sets(group)
    s_pairs = family.s_pairs
    beta_values = tuple(_beta_values(family, s_pairs))
    pair_index = {(pr.inertia, pr.dec): i for i, pr in enumerate(s_pairs)}
    # decomposition law on S minus the irreducible locus
    decomposition_ok = True
    sprime_set = set(family.s_prime)
    for i, pr in enumerate(s_pairs):
        if i in sprime_set:
            continue
        # beta(I, D) must be the sum of beta(I_p, D) over the Sylow parts.
        # As 0/1 vectors the parts sum to beta exactly when the int sum of
        # their masks equals both beta and their union: a + b = (a | b) +
        # (a & b), so a shared bit makes the sum exceed the union.
        total = union = 0
        for p in prime_factors(pr.inertia.order):
            part = beta_values[pair_index[(family.p_part(pr.inertia, p), pr.dec)]]
            total += part
            union |= part
        if not total == union == beta_values[i]:
            decomposition_ok = False
            break
    prime_vals = [beta_values[i] for i in family.s_prime]
    injective = len(set(prime_vals)) == len(prime_vals)
    membership = _MonoidMembership(beta_values)
    irreducible_ok = all(
        v != 0 and not membership.decomposable(v) for v in prime_vals
    )
    requested = 3 if bound is None else bound
    effective = requested
    if bound is None:
        while effective > 0 and _vector_count(len(prime_vals), effective) > VECTOR_CAP:
            effective -= 1
    free = group.is_cyclic or len(prime_factors(group.order)) <= 1
    _refuse_past_cap(len(prime_vals), effective)
    bounded_ok = _bounded_injectivity(prime_vals, effective) if free else None
    nt = len(family.t_tuples)
    np_ = len(family.s_prime)
    verdict = "FREE" if free else "NOT-FREE"
    counts_consistent = (np_ == nt) if free else (np_ > nt)
    return FreenessReport(
        family,
        beta_values,
        decomposition_ok,
        injective,
        irreducible_ok,
        bounded_ok,
        effective,
        effective != requested,
        verdict,
        counts_consistent,
    )


def _vector_count(k: int, bound: int) -> int:
    """#{v in N^k : sum(v) <= bound}, by the hockey-stick identity."""
    return math.comb(k + bound, k)


def _refuse_past_cap(k: int, bound: int) -> None:
    """Refuse a bounded sweep over more than VECTOR_CAP vectors."""
    count = _vector_count(k, bound)
    if count > VECTOR_CAP:
        raise CapacityError(f"{count} candidate vectors exceed the cap {VECTOR_CAP}")


def _independent_mod_2(masks) -> bool:
    """Whether the bitmasks are linearly independent over GF(2), by
    elimination keyed by the lowest set bit of each reduced mask."""
    pivots = {}
    for g in masks:
        while g and (low := g & -g) in pivots:
            g ^= pivots[low]
        if not g:
            return False
        pivots[low] = g
    return True


def _bounded_injectivity(generators, bound: int) -> bool:
    """All formal nonnegative combinations of the generators (0/1 vectors
    held as bitmasks) with coordinate sum <= bound have pairwise distinct
    values.

    Generators independent over GF(2) pass at once: two combinations
    with one value differ by an integer relation sum c_i g_i = 0, and
    dividing c by its gcd leaves an odd c_i, so c mod 2 is a nonzero
    GF(2) relation.  Independence mod 2 thus gives independence over Q,
    and with it distinct values at every bound.  Only dependent families
    run the sweep."""
    k = len(generators)
    _refuse_past_cap(k, bound)
    if not (k and bound):
        return True  # the empty combination is the only one
    # more generators than bits in their union have rank < k: dependent
    if k <= reduce(operator.or_, generators).bit_count() and _independent_mod_2(generators):
        return True
    # spread bit i of each mask to bit i * shift: a field per coordinate
    # wide enough for bound copies of one bit, so that adding packed
    # values adds the vectors with no carry between fields
    shift = bound.bit_length()
    spread = str.maketrans({"0": "0" * shift, "1": "1".rjust(shift, "0")})
    packed = [int(format(g, "b").translate(spread), 2) for g in generators]
    # frontier[i]: values of the multisets of the current size whose
    # largest generator index is i (the empty multiset sits at 0).
    # Extending only by indices >= i builds each multiset once, as a
    # nondecreasing index sequence, so a value seen before is always
    # a collision between two distinct multisets: injectivity fails.
    seen = {0}
    frontier = [[0]] + [[] for _ in range(k - 1)]
    for _ in range(bound):
        nxt = []
        prefix = []
        for idx, g in enumerate(packed):
            prefix += frontier[idx]
            vals = [v + g for v in prefix]
            fresh = set(vals)
            if len(fresh) != len(vals) or not seen.isdisjoint(fresh):
                return False
            seen |= fresh
            nxt.append(vals)
        frontier = nxt
    return True
