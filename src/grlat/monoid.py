"""The combinatorial index sets attached to a finite abelian group and
the structure map between the monoids they span.

Over a group G the generators of interest are pairs (I, phi) with I a
nontrivial elementary subgroup, collapsed to pairs (I, D) with
D = I v <phi>, which makes D/I cyclic.  Locally, over the Sylow p-part
G_p of G, the targets are tuples (p, H, Istar, Dstar) with G/H cyclic
of order prime to p and (Istar, Dstar) an (I, D) pair inside G_p.  G_p
is canonically the maximal p-quotient of G, and the image of a
subgroup S there is its p-part S_p = S meet G_p.  The structure map
beta sends (I, D) to the sum of basis vectors over all target tuples
with D inside H, Istar = I_p and Dstar = D_p, and the analysis below
certifies its decomposition law, injectivity on the irreducible locus,
irreducibility of the generator images, and the freeness verdict for
the image monoid.

Every subgroup is held as the bitmask of its elements over G (bit i is
the element of mixed-radix index i, FinAbGroup.index_of), built once
per command from its stored basis by whole-int translations
(_ElementBits), and the three relations the index sets need are read
off these masks with no HNF and no new Subgroup:
  * D for each residue x of I's basis (a canonical lift of G/I): the
    subgroups over I, walked by (order, basis), each claim the residues
    that no smaller one holds, and x is claimed by I + <x>, since every
    subgroup over I holding x holds I + <x>, and one of the same order
    is I + <x> itself;
  * the p-part of S: the enumerated subgroup whose mask is
    mask(S) & mask(G_p);
  * D <= H: mask(D) & ~mask(H) == 0.
Every subgroup the index sets hold, p-parts included, is therefore the
object enumerate_subgroups made, so its order, hash and exponent are
computed once per command, and the inertia filter, "D cyclic" and "G/H
cyclic" are read off element orders with no Smith form.  The
irreducibility check searches the image monoid trying only the
generators that hold the target's lowest bit (_MonoidMembership).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product

from .abelian import (
    FinAbGroup,
    GroupElement,
    Subgroup,
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


class _ElementBits:
    """Sets of elements of one group as bitmasks: bit i is the element of
    mixed-radix index i, first coordinate fastest (FinAbGroup.index_of),
    so coordinate j is the digit of stride s_j = d_1 ... d_{j-1}.

    Adding c to coordinate j moves the elements with x_j < d_j - c up by
    c s_j and the others down by (d_j - c) s_j: one rotation per moved
    axis, split by the periodic mask of the low slots x_j < d_j - c,
    which is kept per (j, c)."""

    def __init__(self, group: FinAbGroup):
        self.factors = group.factors
        self.strides = []
        stride = 1
        for d in self.factors:
            self.strides.append(stride)
            stride *= d
        self.whole = (1 << stride) - 1
        self._low = {}

    def low(self, j: int, c: int) -> int:
        """The elements with x_j < d_j - c: a block of (d_j - c) s_j ones
        repeated with period d_j s_j.  On the last axis the block is the
        whole mask, made by one shift and not kept."""
        d, s = self.factors[j], self.strides[j]
        if j == len(self.factors) - 1:
            return (1 << (d - c) * s) - 1
        key = (j, c)
        if key not in self._low:
            repeats = self.whole // ((1 << d * s) - 1)
            self._low[key] = ((1 << (d - c) * s) - 1) * repeats
        return self._low[key]

    def translate(self, mask: int, v) -> int:
        """The mask of the set translated by the element v."""
        for j, (c, d, s) in enumerate(zip(v, self.factors, self.strides)):
            c %= d
            if c:
                stay = mask & self.low(j, c)
                mask = stay << c * s | (mask ^ stay) >> (d - c) * s
        return mask

    def of_basis(self, basis) -> int:
        """The mask of the subgroup with this stored basis, from the bottom
        row up.  With S' the span of the rows below row i (zero in every
        coordinate up to i) and m = d_i / h_i, S' + <row i> is the union
        of S' + c row_i over c < m, and c row_i + S' depends on c mod m
        only, since m row_i lies in S' + diag(d).  So ceil(log2 m)
        doublings, each the union of the mask with its translate by
        (its count of cosets) row_i, give that union."""
        mask = 1
        for i in reversed(range(len(basis))):
            row = basis[i]
            m = self.factors[i] // row[i]
            count = 1
            while count < m:
                mask |= self.translate(mask, [count * x for x in row])
                count *= 2
        return mask

    def box(self, basis) -> int:
        """The residues of a stored basis, 0 <= x_j < h_j for its pivots
        h_j: the canonical lifts of G/S (intmat.hnf_residues)."""
        mask = self.whole
        for j, (row, d) in enumerate(zip(basis, self.factors)):
            if row[j] < d:
                mask &= self.low(j, d - row[j])
        return mask

    def points(self, mask: int):
        """The coordinates of the elements of mask, its set bits read off
        its binary digits."""
        digits = bin(mask)[:1:-1]
        i = digits.find("1")
        while i >= 0:
            x, rest = [], i
            for d in self.factors:
                rest, c = divmod(rest, d)
                x.append(c)
            yield tuple(x)
            i = digits.find("1", i + 1)


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
    build_pair_sets, the only constructor, reads each D off the
    subgroups' masks, as the subgroup claiming the residues of I's basis
    that generate D/I."""

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
    projection[i]: index into s_pairs of the image of stilde[i];
    masks: each subgroup's element bitmask over G (_ElementBits).
    """

    group: FinAbGroup
    subgroups: tuple
    stilde: tuple
    s_pairs: tuple
    projection: tuple
    masks: dict = field(compare=False, repr=False)

    @cached_property
    def _by_mask(self) -> dict:
        return {m: s for s, m in self.masks.items()}

    def meet(self, a: Subgroup, b: Subgroup) -> Subgroup:
        """a meet b, the enumerated subgroup whose mask is the meet of the
        two masks."""
        return self._by_mask[self.masks[a] & self.masks[b]]


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
    def _sylows(self) -> dict:
        """p -> G_p, the one subgroup of order p^v_p(#G)."""
        return {
            p: next(s for s in self.subgroups if s.order == p**e)
            for p, e in prime_factors(self.group.order).items()
        }

    def p_part(self, sub: Subgroup, p: int) -> Subgroup:
        """The Sylow p-part of sub, S meet G_p; it is also m S for m the
        prime-to-p part of #G, and the image of S in the maximal
        p-quotient of G, which G_p maps onto isomorphically."""
        return self.meet(sub, self._sylows[p])

    @property
    def counts(self):
        return {
            "stilde": len(self.stilde),
            "s": len(self.s_pairs),
            "t": len(self.t_tuples),
            "s_prime": len(self.s_prime),
            "s_dprime": len(self.s_dprime),
        }


def _pair_sets(bits: _ElementBits, group: FinAbGroup, inertias, masks):
    """(stilde, s_pairs, projection) of a group whose nontrivial
    elementary subgroups are inertias, masks holding every subgroup's
    element bitmask.

    The residues x of I's basis are the canonical lifts of G/I, and the
    D of (I, x) is I + <x>, the least subgroup over I that holds x.  So
    the subgroups over I, walked by (order, basis) among the orders
    that #I divides, each claim the residues that no earlier one holds:
    a subgroup over I that holds x holds I + <x>, and one of the same
    order is I + <x>.  The earlier claims are decoded off their bits;
    the last claimant takes every residue left, and no pair is tested."""
    by_order = {}
    for sub in masks:  # enumerate_subgroups' (order, basis) order
        by_order.setdefault(sub.order, []).append(sub)
    stilde, s_pairs, projection = [], [], []
    for inertia in sorted(inertias, key=lambda s: s.basis):
        basis, inside = inertia.basis, masks[inertia]
        box, held = bits.box(basis), 0
        left = group.order // inertia.order  # residues not yet claimed
        dec_of = {}  # residue of I's basis -> D = I + <residue>
        # of the order of I, only I itself is over I
        supers = (
            sub
            for order, subs in by_order.items()
            if order % inertia.order == 0
            for sub in (subs if order > inertia.order else [inertia])
            if not inside & ~masks[sub]
        )
        for dec in supers:
            claim = masks[dec] & box & ~held
            left -= claim.bit_count()
            if not left:
                break
            held |= claim
            dec_of.update(dict.fromkeys(bits.points(claim), dec))
        decs = sorted({*dec_of.values(), dec}, key=lambda s: s.basis)
        index = {d: len(s_pairs) + i for i, d in enumerate(decs)}
        s_pairs += [DecompositionPair(inertia, d) for d in decs]
        # the residues in lex order, which stilde is sorted by
        for x in product(*(range(row[j]) for j, row in enumerate(basis))):
            stilde.append(InertiaPair(inertia, GroupElement(group, x)))
            projection.append(index[dec_of.get(x, dec)])
    return tuple(stilde), tuple(s_pairs), tuple(projection)


def build_pair_sets(group: FinAbGroup) -> PairSets:
    """The subgroups, the (I, phi) and (I, D) pairs and the projection
    between them.  Past PAIR_CAP (I, phi) pairs, counted as the sum of
    [G:I], or PAIR_CAP (inertia group, subgroup) combinations:
    CapacityError, before any pair or mask is built."""
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
    bits = _ElementBits(group)
    masks = {s: bits.of_basis(s.basis) for s in subs}
    return PairSets(group, tuple(subs), *_pair_sets(bits, group, inertias, masks), masks)


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
        pairs.masks,
        tuple(t_tuples),
        tuple(s_prime),
        tuple(s_dprime),
    )


def _beta_values(family: SetFamily, pairs) -> list:
    """beta of each (I, D) pair, a 0/1 vector over the target tuples held
    as a bitmask: bit i is set when t_tuples[i] = (p, H, Istar, Dstar)
    has D inside H and the Sylow p-parts of I and D equal to Istar and
    Dstar.  The p-parts and the target tuples hold the enumerated
    subgroups, so the comparison is a dict lookup, and D <= H is one
    test on the element masks."""
    targets = family.t_tuples
    masks = family.masks
    by_parts = {}
    h_ids = {}
    h_of = []  # target index -> index of its H among the distinct H
    for i, t in enumerate(targets):
        by_parts.setdefault((t.p, t.istar, t.dstar), []).append(i)
        h_of.append(h_ids.setdefault(t.h, len(h_ids)))
    outside = [~masks[h] for h in h_ids]  # the elements of G not in H
    out = []
    for pair in pairs:
        mask = 0
        dec = masks[pair.dec]
        for p in prime_factors(pair.inertia.order):
            key = (p, family.p_part(pair.inertia, p), family.p_part(pair.dec, p))
            for i in by_parts.get(key, ()):
                if not dec & outside[h_of[i]]:
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
