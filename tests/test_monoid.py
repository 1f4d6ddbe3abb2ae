"""Index sets, the marking map, and the freeness analysis.

Set cardinalities for the anchor groups are frozen from first
principles (the closed-form count for cyclic groups is checked against
direct enumeration), and the degradation path of the bounded
injectivity sweep is pinned.
"""

import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grlat
import grlat.intmat as im

from grlat.abelian import (
    Subgroup,
    decomposition_subgroup,
    enumerate_subgroups,
    make_group,
    prime_factors,
    quotient_data,
    sylow,
    sylow_complement,
)
from grlat import abelian, monoid
from grlat.errors import CapacityError, ParentMismatchError, ScopeError
from grlat.monoid import (
    VECTOR_CAP,
    DecompositionPair,
    InertiaPair,
    LocalTuple,
    SetFamily,
    _beta_values,
    _ElementBits,
    _bounded_injectivity,
    _MonoidMembership,
    _vector_count,
    analyze_monoid,
    build_pair_sets,
    build_sets,
    cardinality_formulas,
)
from reference import (
    RefMonoidMembership,
    ref_is_elementary,
    ref_is_subset_of,
    ref_meet,
    ref_pair_sets,
    ref_quotient_structure,
    ref_subgroup_p_part,
    ref_subgroup_structure,
)
from test_abelian import push

FROZEN_COUNTS = {
    (9,): {"stilde": 4, "s": 3, "t": 3, "s_prime": 3, "s_dprime": 3},
    (2, 3, 5): {"stilde": 42, "s": 19, "t": 12, "s_prime": 12, "s_dprime": 12},
    (3, 6): {"stilde": 48, "s": 32, "t": 23, "s_prime": 28, "s_dprime": 23},
}


def test_frozen_counts():
    for facs, expected in FROZEN_COUNTS.items():
        fam = build_sets(make_group(list(facs)))
        assert fam.counts == expected, facs


def test_stilde_structure():
    fam = build_sets(make_group([9]))
    for pair in fam.stilde:
        assert not pair.inertia.is_trivial
        assert decomposition_subgroup(pair.inertia, pair.frob).contains(pair.frob)
    assert len(fam.projection) == len(fam.stilde)
    assert set(fam.projection) == set(range(len(fam.s_pairs)))


def test_cardinality_formulas_anchor():
    assert cardinality_formulas(make_group([12])) == (12, 9)
    assert cardinality_formulas(make_group([9])) == (3, 3)
    assert cardinality_formulas(make_group([30])) == (19, 12)
    with pytest.raises(ScopeError):
        cardinality_formulas(make_group([3, 3]))


def test_cardinality_formulas_match_enumeration():
    for facs in ([4], [9], [12], [15], [30], [100]):
        g = make_group(facs)
        s_val, t_val = cardinality_formulas(g)
        fam = build_sets(g)
        assert s_val == fam.counts["s"], facs
        assert t_val == fam.counts["t"], facs


def test_decomposition_law_direct():
    # beta of a mixed-order pair is the sum over its Sylow slices
    g = make_group([15])
    fam = build_sets(g)
    mixed = [
        pr
        for pr in fam.s_pairs
        if len(prime_factors(pr.inertia.order)) > 1 and pr.dec.is_cyclic
    ]
    assert mixed
    by_key = {(pr.inertia.basis, pr.dec.basis): pr for pr in fam.s_pairs}
    for pr in mixed:
        total = 0
        for p in sorted(prime_factors(pr.inertia.order)):
            part = ref_meet(pr.inertia, sylow(g, p))
            [v] = _beta_values(fam, [by_key[(part.basis, pr.dec.basis)]])
            # disjoint masks: their int sum is the sum of the 0/1 vectors
            assert not total & v
            total += v
        assert [total] == _beta_values(fam, [pr])


def test_beta_injective_on_irreducibles_z9():
    fam = build_sets(make_group([9]))
    values = _beta_values(fam, [fam.s_pairs[i] for i in fam.s_prime])
    assert all(values)
    assert len(set(values)) == len(values)


def test_analysis_free_cyclic():
    rep = analyze_monoid(make_group([9]))
    assert rep.verdict == "FREE"
    assert rep.all_checks_pass
    assert rep.bounded_injectivity_ok
    assert rep.bound == 3 and not rep.bound_reduced
    rep30 = analyze_monoid(make_group([30]))
    assert rep30.verdict == "FREE" and rep30.all_checks_pass


def test_analysis_not_free_mixed():
    rep = analyze_monoid(make_group([3, 6]))
    assert rep.verdict == "NOT-FREE"
    assert not rep.bounded_injectivity_expected
    # the report never prints the bounded check here, so no sweep runs
    assert rep.bounded_injectivity_ok is None
    assert rep.all_checks_pass
    counts = rep.family.counts
    assert counts["s_prime"] > counts["t"]


def test_bound_degradation():
    g = make_group([2, 2, 2, 2])
    rep = analyze_monoid(g)
    assert rep.bound == 2 and rep.bound_reduced
    assert rep.all_checks_pass
    with pytest.raises(CapacityError):
        analyze_monoid(g, bound=3)


@pytest.mark.parametrize("cap, refused", [(63, False), (62, True)])
def test_pair_cap_counts_the_inertia_pairs(cap, refused, monkeypatch):
    # Z/64: 6 inertia groups times 7 subgroups is 42 combinations, but
    # the (I, phi) pairs number 32 + 16 + 8 + 4 + 2 + 1 = 63
    monkeypatch.setattr(monoid, "PAIR_CAP", cap)
    if refused:
        with pytest.raises(CapacityError, match="63 \\(I, phi\\) pairs"):
            build_sets(make_group([64]))
    else:
        assert len(build_sets(make_group([64])).stilde) == 63


def test_bound_guard():
    with pytest.raises(ScopeError):
        analyze_monoid(make_group([9]), bound=1)


def test_vector_count_is_the_sum_of_multiset_counts():
    # the loop _vector_count used to run: C(k + i - 1, i) for i <= bound
    for k in range(30):
        for bound in range(30):
            count = num = 1
            for i in range(1, bound + 1):
                num = num * (k + i - 1) // i
                count += num
            assert _vector_count(k, bound) == count, (k, bound)


@pytest.mark.parametrize("spec, code", [("4", 65), ("2", 65), ("1", 0)])
def test_a_huge_bound_is_refused_or_needs_no_rounds(spec, code):
    # the candidate count is read off a binomial, not summed bound times,
    # and a group with no irreducible generators runs no rounds
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "grlat", "monoid", spec, "--bound", "100000000000"],
        capture_output=True, env=env, timeout=5,
    )
    assert done.returncode == code, done.stderr


def test_a_not_free_group_is_refused_a_huge_bound_without_a_sweep():
    # 3,6 runs no bounded sweep, yet C(28 + 10^11, 28) vectors exceed the cap
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "grlat", "monoid", "3,6", "--bound", "100000000000"],
        capture_output=True, env=env, timeout=5,
    )
    assert done.returncode == 65
    assert b"candidate vectors exceed the cap" in done.stderr


def test_the_cap_refuses_an_independent_family_first():
    # the images of 4,8 are independent over GF(2), which decides every
    # bound, but C(k + 5, 5) candidate vectors still exceed the cap
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "grlat", "monoid", "4,8", "--bound", "5"],
        capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 65
    assert b"54891018 candidate vectors" in done.stderr


def test_independent_images_hold_no_sweep():
    # the sweep over the 667 images of 2,2,2,4 at bound 2 peaked at
    # 43.6 MiB; the images are distinct single bits, so none is held
    group = make_group([2, 2, 2, 4])
    tracemalloc.start()
    try:
        rep = analyze_monoid(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.bounded_injectivity_ok and rep.all_checks_pass
    assert peak < 4 * 2**20


def test_sprime_vs_t_count_law():
    # #S' >= #T always, equality exactly for cyclic or prime-power order
    for facs in (
        [4],
        [9],
        [15],
        [30],
        [100],
        [2, 2],
        [3, 3],
        [2, 4],
        [8, 8],
        [2, 6],
        [3, 6],
        [6, 6],
    ):
        g = make_group(facs)
        fam = build_sets(g)
        np_, nt = fam.counts["s_prime"], fam.counts["t"]
        assert np_ >= nt, facs
        expect_eq = g.is_cyclic or len(prime_factors(g.order)) == 1
        assert (np_ == nt) == expect_eq, facs


def test_subgroup_recovery():
    # every subgroup D is the meet of the subgroups H containing D with
    # cyclic quotient G/H
    for facs in ([9], [3, 3], [2, 6], [30]):
        g = make_group(facs)
        subs = enumerate_subgroups(g)
        cyc = [h for h in subs if quotient_data(g, h).group.is_cyclic]
        for d in subs:
            over = [h for h in cyc if ref_is_subset_of(d, h)]
            assert over and reduce(ref_meet, over) == d, (facs, d)


# -- reference implementations on dense tuples ------------------------------
# Verbatim copies of the tuple-based membership search and injectivity
# sweep that the packed-integer versions replaced; the differential tests
# below hold the new code to their verdicts, on the bitmasks of the
# tuples.


def _mask(vec) -> int:
    """The 0/1 tuple as an int with bit i set where vec[i] is 1."""
    return sum(1 << i for i, x in enumerate(vec) if x)


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_le(a, b):
    return all(x <= y for x, y in zip(a, b))


class _TupleMonoidMembership:
    """Decides membership in the monoid generated by 0/1-free generator
    vectors, by depth-first search over dominated generator subtractions
    with a shared memo."""

    def __init__(self, generators):
        self.gens = sorted(set(g for g in generators if any(g)), reverse=True)
        self.memo = {}

    def contains(self, vec) -> bool:
        if not any(vec):
            return True
        if vec in self.memo:
            return self.memo[vec]
        self.memo[vec] = False  # cuts cycles; sums only shrink, so safe
        out = False
        for g in self.gens:
            if _vec_le(g, vec) and self.contains(_vec_sub(vec, g)):
                out = True
                break
        self.memo[vec] = out
        return out

    def decomposable(self, vec) -> bool:
        """vec = a + b with both parts nonzero members."""
        for g in self.gens:
            if _vec_le(g, vec):
                rest = _vec_sub(vec, g)
                if any(rest) and self.contains(rest):
                    return True
        return False


def _tuple_bounded_injectivity(generators, bound: int) -> bool:
    """All formal nonnegative combinations of the generators with
    coordinate sum <= bound have pairwise distinct values."""
    k = len(generators)
    count = _vector_count(k, bound)
    if count > VECTOR_CAP:
        raise CapacityError(
            f"{count} candidate vectors exceed the cap {VECTOR_CAP}"
        )
    width = len(generators[0]) if generators else 0
    zero = (0,) * width
    seen = {zero: (0,) * k}
    frontier = [(zero, (0,) * k, 0)]
    for _ in range(bound):
        nxt = []
        for val, expo, start in frontier:
            for idx in range(start, k):
                g = generators[idx]
                nval = tuple(a + b for a, b in zip(val, g))
                nexpo = list(expo)
                nexpo[idx] += 1
                nexpo = tuple(nexpo)
                prev = seen.get(nval)
                if prev is not None and prev != nexpo:
                    return False
                seen[nval] = nexpo
                nxt.append((nval, nexpo, idx))
        frontier = nxt
    return True


@st.composite
def zero_one_generators(draw, max_size, max_width=40):
    """A list of 0/1 vectors of one width in 1..max_width, possibly with
    a repeated vector and the zero vector mixed in."""
    width = draw(st.integers(1, max_width))
    vec = st.tuples(*[st.integers(0, 1)] * width)
    gens = draw(st.lists(vec, max_size=max_size))
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), (0,) * width)
    return width, gens


@given(zero_one_generators(max_size=10), st.integers(2, 5))
@settings(max_examples=300, deadline=None)
@example((2, [(1, 0), (0, 1)]), 5)
@example((3, [(1, 1, 0), (0, 0, 1), (1, 1, 1)]), 5)
@example((1, [(1,), (0,)]), 2)
# e0+e1, e1+e2, e0+e2: independent over Q but summing to 0 mod 2, so the
# sweep, not the GF(2) proof, must find that no combinations collide
@example((3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]), 2)
@example((3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]), 5)
def test_bounded_injectivity_matches_tuple_sweep(case, bound):
    # bound 5 needs 3-bit fields: with 2-bit fields 4*(1,0) would carry
    # into the packed value of (0,1)
    _, gens = case
    masks = [_mask(g) for g in gens]
    assert _bounded_injectivity(masks, bound) == _tuple_bounded_injectivity(gens, bound)


@st.composite
def independent_generators(draw):
    """Up to 40 0/1 vectors independent over GF(2): unit vectors, each
    with a random combination of higher bits when triangular, with
    coordinates and generators then permuted."""
    k = draw(st.integers(0, 40))
    width = k + draw(st.integers(0, 8))
    triangular = draw(st.booleans())
    rows = []
    for i in range(k):
        higher = draw(st.integers(0, (1 << (width - i - 1)) - 1)) if triangular else 0
        rows.append((1 << i) | higher << (i + 1))
    coords = draw(st.permutations(range(width)))
    gens = [tuple((row >> c) & 1 for c in coords) for row in rows]
    return width, draw(st.permutations(gens))


@given(independent_generators(), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_independent_families_match_tuple_sweep(case, bound):
    _, gens = case
    masks = [_mask(g) for g in gens]
    if _vector_count(len(gens), bound) > VECTOR_CAP:
        # the cap refuses first, even where independence would decide
        with pytest.raises(CapacityError):
            _bounded_injectivity(masks, bound)
        return
    assert _bounded_injectivity(masks, bound) == _tuple_bounded_injectivity(gens, bound)


def test_bounded_injectivity_verdicts_on_anchors():
    units = [1 << i for i in range(4)]
    assert _bounded_injectivity(units, 5)
    assert not _bounded_injectivity(units + [units[0]], 2)
    assert not _bounded_injectivity(units + [0], 2)
    # 0b0011 + 0b1100 equals the generator 0b1111
    assert not _bounded_injectivity([0b0011, 0b1100, 0b1111], 2)
    # 2 * 0b01 is 0b10 as an int, but not as a 0/1 vector
    assert _bounded_injectivity([0b01, 0b10], 2)
    assert _bounded_injectivity([], 3)


@given(zero_one_generators(max_size=16, max_width=80), st.data())
@settings(max_examples=300, deadline=None)
def test_membership_matches_tuple_search(case, data):
    width, gens = case
    vec = st.tuples(*[st.integers(0, 1)] * width)
    queries = list(gens) + data.draw(st.lists(vec, max_size=6))
    # unions of generators: those of disjoint generators are their sums,
    # so members and non-members both occur
    pick = st.lists(st.sampled_from(gens or [(0,) * width]), max_size=6)
    for picks in data.draw(st.lists(pick, max_size=6)):
        queries.append(tuple(max(c) for c in zip((0,) * width, *picks)))
    new, old = _MonoidMembership([_mask(g) for g in gens]), _TupleMonoidMembership(gens)
    for q in queries:
        assert new._contains(_mask(q)) == old.contains(q), q
        assert new.decomposable(_mask(q)) == old.decomposable(q), q


# The index sets as they were built before build_sets read the (I, D)
# pairs off the (I, phi) pairs: the deleted route tests every inertia
# group against every subgroup for a cyclic quotient, globally and again
# over each maximal p-quotient (ref_cyclic_quotient_pairs), the stilde
# loop retests every subgroup, "G/H cyclic" is tested per (H, p), the
# pairs re-check themselves on construction, and each coset's lift is
# the least element of the coset's listing.


def ref_is_cyclic(sub):
    return len(ref_subgroup_structure(sub)) <= 1


def ref_inertia_pair_checks(inertia, frob):
    if inertia.group != frob.group:
        raise ParentMismatchError("subgroup and element parents differ")
    if inertia.is_trivial:
        raise ScopeError("inertia must be nontrivial")
    if not ref_is_elementary(ref_subgroup_structure(inertia)):
        raise ScopeError("inertia must be elementary")


def ref_decomposition_pair_checks(inertia, dec):
    if inertia.is_trivial:
        raise ScopeError("inertia must be nontrivial")
    if not ref_is_elementary(ref_subgroup_structure(inertia)):
        raise ScopeError("inertia must be elementary")
    if not ref_is_subset_of(inertia, dec):
        raise ScopeError("inertia must sit inside the decomposition part")
    qd = quotient_data(inertia.group, inertia)
    if not ref_is_cyclic(push(qd, dec)):
        raise ScopeError("quotient dec/inertia must be cyclic")


def ref_canonical_lift(sub, elem):
    return min((elem + t for t in sub.elements()), key=lambda e: e.coords)


def ref_cyclic_quotient_pairs(group, subs):
    out = []
    for inertia in subs:
        if inertia.is_trivial or not ref_is_elementary(ref_subgroup_structure(inertia)):
            continue
        qd = quotient_data(group, inertia)
        for dec in subs:
            if ref_is_subset_of(inertia, dec) and ref_is_cyclic(push(qd, dec)):
                ref_decomposition_pair_checks(inertia, dec)
                out.append(DecompositionPair(inertia, dec))
    out.sort(key=DecompositionPair.sort_key)
    return out


def ref_build_sets(group):
    subs = enumerate_subgroups(group)
    s_pairs = ref_cyclic_quotient_pairs(group, subs)
    s_index = {
        (pr.inertia.basis, pr.dec.basis): i for i, pr in enumerate(s_pairs)
    }
    stilde = []
    for inertia in subs:
        if inertia.is_trivial or not ref_is_elementary(ref_subgroup_structure(inertia)):
            continue
        qd = quotient_data(group, inertia)
        preimage = {qd.proj(e): e for e in group.elements()}
        for cbar in qd.group.elements():
            frob = ref_canonical_lift(inertia, preimage[cbar])
            ref_inertia_pair_checks(inertia, frob)
            stilde.append(InertiaPair(inertia, frob))
    stilde.sort(key=lambda pr: (pr.inertia.basis, pr.frob.coords))
    projection = tuple(
        s_index[(pr.inertia.basis, decomposition_subgroup(pr.inertia, pr.frob).basis)] for pr in stilde
    )
    primes = sorted(prime_factors(group.order))
    s_p = {}
    t_tuples = []
    for p in primes:
        qd_p = quotient_data(group, sylow_complement(group, p))
        s_p[p] = tuple(ref_cyclic_quotient_pairs(qd_p.group, enumerate_subgroups(qd_p.group)))
        hs = []
        for h in subs:
            qh = quotient_data(group, h)
            if qh.group.is_cyclic and qh.group.order % p != 0:
                hs.append(h)
        for h in hs:
            for pr in s_p[p]:
                t_tuples.append(LocalTuple(p, h, pr.inertia, pr.dec))
    t_tuples.sort(key=LocalTuple.sort_key)
    s_prime = tuple(
        i
        for i, pr in enumerate(s_pairs)
        if not ref_is_cyclic(pr.dec) or len(prime_factors(pr.inertia.order)) == 1
    )
    s_dprime = tuple(
        i
        for i, pr in enumerate(s_pairs)
        if len(prime_factors(pr.inertia.order)) == 1
    )
    return SetFamily(
        group,
        tuple(subs),
        tuple(stilde),
        tuple(s_pairs),
        projection,
        None,
        tuple(t_tuples),
        s_prime,
        s_dprime,
    )


# the order <= 100 catalogue of acceptance criterion 3
CATALOGUE_100 = (
    [9], [12], [15], [27], [30], [45], [64], [97], [100],
    [3, 3], [2, 4], [3, 9], [2, 2, 4], [5, 5], [4, 8], [2, 2, 2, 2],
    [3, 3, 3], [7, 7], [2, 32],
    [3, 6], [2, 6], [6, 6], [2, 30], [2, 2, 12], [10, 10], [3, 21],
    [2, 50], [4, 12], [2, 2, 18],
)


@pytest.mark.parametrize("factors", CATALOGUE_100, ids=str)
def test_p_part_is_the_sylow_meet_and_the_p_quotient_image(factors):
    """The p-part read off the masks is the enumerated subgroup of S meet
    G_p and of m S, for m the prime-to-p part of #G, and it has the
    image of S in the Smith quotient by the p-complement."""
    g = make_group(factors)
    fam = build_sets(g)
    made = {id(s) for s in fam.subgroups}
    for p in prime_factors(g.order):
        qd = quotient_data(g, sylow_complement(g, p))
        for sub in fam.subgroups:
            part = fam.p_part(sub, p)
            assert id(part) in made, (p, sub)
            assert part == ref_meet(sub, sylow(g, p)) == ref_subgroup_p_part(sub, p), (p, sub)
            assert push(qd, part) == push(qd, sub), (p, sub)


@pytest.mark.parametrize("factors", CATALOGUE_100, ids=str)
def test_build_sets_matches_reference(factors):
    """Every index set is the reference's; the target tuples agree once
    build_sets' Sylow p-parts (Istar, Dstar) are pushed into the Smith
    quotient by the p-complement, where the reference builds them."""
    g = make_group(factors)
    fam, ref = build_sets(g), ref_build_sets(g)
    for field in dataclasses.fields(SetFamily):
        if field.name not in ("t_tuples", "masks"):
            assert getattr(fam, field.name) == getattr(ref, field.name), field.name
    quotients = {p: quotient_data(g, sylow_complement(g, p)) for p in prime_factors(g.order)}
    pushed = [
        LocalTuple(t.p, t.h, push(quotients[t.p], t.istar), push(quotients[t.p], t.dstar))
        for t in fam.t_tuples
    ]
    assert sorted(pushed, key=LocalTuple.sort_key) == list(ref.t_tuples)


def test_build_sets_tests_each_subgroup_a_bounded_number_of_times(monkeypatch):
    # one "G/H cyclic" test per subgroup and one exponent, for
    # "elementary" and "cyclic", per nontrivial subgroup; the local pairs
    # are G's own, so no subgroup is tested again, and no (I, D) pair is
    # tested at all
    g = make_group([2, 2, 2, 2])
    nsubs = len(enumerate_subgroups(g))
    assert nsubs == 67
    exponents, quotients = [], []
    real_exponent = Subgroup.exponent.fget
    real_quotient = Subgroup.quotient_is_cyclic.fget

    def exponent(self):
        if self._exponent is None:
            exponents.append(self)
        return real_exponent(self)

    def quotient_is_cyclic(self):
        quotients.append(self)
        return real_quotient(self)

    monkeypatch.setattr(Subgroup, "exponent", property(exponent))
    monkeypatch.setattr(Subgroup, "quotient_is_cyclic", property(quotient_is_cyclic))
    build_sets(g)
    assert len(exponents) + len(quotients) <= 2 * nsubs
    assert len(set(map(id, exponents))) == len(exponents)


@pytest.mark.parametrize("factors", [[10, 10], [2, 2, 30]], ids=str)
def test_build_sets_enumerates_subgroups_once(factors, monkeypatch):
    # the local pairs over p are read off G's own pairs, so no subgroup
    # lattice of a p-quotient is enumerated beside G's
    calls = []

    def spy(group):
        calls.append(group)
        return enumerate_subgroups(group)

    monkeypatch.setattr(monoid, "enumerate_subgroups", spy)
    g = make_group(factors)
    build_sets(g)
    assert calls == [g]


# the criterion-3 catalogue, which holds 2,2,2,2 and the 18 groups of the
# benchmark's monoid workload, the cyclic orders 2-81 and three p-groups
PAIR_ROUTE_GROUPS = [
    *CATALOGUE_100,
    *([n] for n in range(2, 82) if [n] not in CATALOGUE_100),
    [2, 2, 8], [3, 27], [4, 16],
]


@pytest.mark.parametrize("factors", PAIR_ROUTE_GROUPS, ids=str)
def test_pair_route_matches_the_per_phi_route(factors):
    """Building each D once per inertia group, its other generators
    mapped to it by reduction, gives the stilde, s_pairs and projection
    of one decomposition subgroup per (I, phi)."""
    g = make_group(factors)
    fam = build_pair_sets(g)
    inertias = [
        s for s in fam.subgroups if not s.is_trivial and ref_is_elementary(ref_subgroup_structure(s))
    ]
    assert (fam.stilde, fam.s_pairs, fam.projection) == ref_pair_sets(g, inertias)


@pytest.mark.parametrize("factors", [[3, 3, 3], [2, 2, 12]], ids=str)
def test_each_pair_is_read_off_the_enumerated_subgroups(factors, monkeypatch):
    """After enumerate_subgroups, build_sets takes no HNF, builds no
    decomposition subgroup and makes no Subgroup: every subgroup an
    index set holds, p-parts included, is the object enumerate_subgroups
    made for its basis."""
    calls = []
    enumerated = []

    def spy(name, real):
        def counted(*args, **kwargs):
            if enumerated:
                calls.append(name)
            return real(*args, **kwargs)

        return counted

    def enumerate_once(group):
        subs = enumerate_subgroups(group)
        enumerated.append(group)
        return subs

    monkeypatch.setattr(monoid, "enumerate_subgroups", enumerate_once)
    monkeypatch.setattr(im, "hnf", spy("hnf", im.hnf))
    monkeypatch.setattr(abelian, "decomposition_subgroup", spy("decomposition_subgroup", decomposition_subgroup))
    monkeypatch.setattr(Subgroup, "__init__", spy("Subgroup", Subgroup.__init__))
    fam = build_sets(make_group(factors))
    for p in prime_factors(fam.group.order):
        for sub in fam.subgroups:
            fam.p_part(sub, p)
    assert enumerated and calls == []
    made = {id(s) for s in fam.subgroups}
    held = [sub for pr in fam.s_pairs for sub in (pr.inertia, pr.dec)]
    held += [sub for t in fam.t_tuples for sub in (t.h, t.istar, t.dstar)]
    held += [pr.inertia for pr in fam.stilde]
    assert all(id(sub) in made for sub in held)
    for pr in fam.s_pairs:
        for p in prime_factors(pr.inertia.order):
            assert id(fam.p_part(pr.inertia, p)) in made and id(fam.p_part(pr.dec, p)) in made


def assert_masks_match_the_lattice(g):
    """Each subgroup's mask is its elements() through index_of, the p-part
    of the masks is the Sylow meet, and containment and meet of the masks
    are containment and meet of the lattices."""
    fam = build_sets(g)
    subs = fam.subgroups
    assert set(fam.masks) == set(subs)
    for sub in subs:
        assert fam.masks[sub] == sum(1 << g.index_of(e) for e in sub.elements()), sub
        for p in prime_factors(g.order):
            assert fam.p_part(sub, p) == ref_meet(sub, sylow(g, p)), (p, sub)
    for small in subs:
        for big in subs:
            inside = not fam.masks[small] & ~fam.masks[big]
            assert inside == ref_is_subset_of(small, big), (small, big)
            assert fam.meet(small, big) == ref_meet(small, big), (small, big)


@pytest.mark.parametrize("factors", PAIR_ROUTE_GROUPS, ids=str)
def test_masks_match_the_lattice(factors):
    assert_masks_match_the_lattice(make_group(factors))


@given(st.lists(st.integers(2, 16), min_size=1, max_size=3).filter(lambda f: reduce(int.__mul__, f) <= 400))
@settings(max_examples=40, deadline=None)
def test_masks_match_the_lattice_on_drawn_groups(factors):
    assert_masks_match_the_lattice(make_group(factors))


@pytest.mark.parametrize("factors", [[999983], [131072]], ids=str)
def test_a_mask_takes_one_translation_per_doubling(factors, monkeypatch):
    """A mask is built by ceil(log2(d_i / h_i)) translations per row, not
    element by element: 20 translations for the whole of 999983, where
    an element-wise build takes 999,983 steps."""
    count = []
    real = _ElementBits.translate

    def counted(self, mask, v):
        count.append(v)
        return real(self, mask, v)

    monkeypatch.setattr(_ElementBits, "translate", counted)
    g = make_group(factors)
    pairs = build_pair_sets(g)
    bound = sum(
        (d // row[i] - 1).bit_length()
        for sub in pairs.subgroups
        for i, (row, d) in enumerate(zip(sub.basis, g.factors))
    )
    assert len(count) <= bound
    assert bound == (20 if factors == [999983] else sum(range(18)))


# the groups of the benchmark's monoid workload: the noncyclic groups of
# the criterion-3 catalogue but 2,2,4 and 2,2,2,2
MONOID_WORKLOAD_GROUPS = [
    [3, 3], [2, 4], [5, 5], [4, 8], [3, 3, 3], [7, 7], [2, 32], [3, 6], [2, 6],
    [6, 6], [2, 30], [2, 2, 12], [10, 10], [3, 21], [2, 50], [4, 12], [3, 9],
    [2, 2, 18],
]


def assert_predicates_match_the_smith_forms(g):
    """is_cyclic, the inertia filter and "G/H cyclic" of every subgroup,
    read off element orders, against the invariant factors of the
    subgroup and of G/H."""
    full = Subgroup.full(g)
    for sub in enumerate_subgroups(g):
        structure = ref_subgroup_structure(sub)
        assert sub.is_cyclic == (len(structure) <= 1), sub
        assert sub.is_elementary == ref_is_elementary(structure), sub
        assert sub.quotient_is_cyclic == (len(ref_quotient_structure(full, sub)) <= 1), sub


@pytest.mark.parametrize("factors", [*CATALOGUE_100, [2, 6, 12]], ids=str)
def test_subgroup_predicates_match_the_smith_forms(factors):
    assert_predicates_match_the_smith_forms(make_group(factors))


@given(st.lists(st.integers(2, 16), min_size=1, max_size=3).filter(lambda f: reduce(int.__mul__, f) <= 400))
@settings(max_examples=40, deadline=None)
def test_subgroup_predicates_match_the_smith_forms_on_drawn_groups(factors):
    assert_predicates_match_the_smith_forms(make_group(factors))


def test_build_sets_takes_no_smith_form(monkeypatch):
    # is_cyclic, the inertia filter and "G/H cyclic" are read off element
    # orders; the parent of this test took 742 Smith forms here, two per
    # subgroup
    calls = []
    real = im.snf_with_transform

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(im, "snf_with_transform", counted)
    for factors in MONOID_WORKLOAD_GROUPS:
        build_sets(make_group(factors))
    assert calls == []


@pytest.mark.parametrize("factors", [[2, 6, 12], [2, 2, 30], [2, 2, 2, 2, 2]], ids=str)
def test_membership_matches_the_exhaustive_search_on_beta_values(factors):
    """Trying only the generators that hold the target's lowest bit gives
    the verdicts of trying every generator, on every beta value and on
    unions of two: all of them for 2,2,30, and for the other two, where
    the exhaustive search takes minutes over all of them (1.06 million
    unions for 2,6,12), 2000 overlapping and 2000 arbitrary pairs drawn
    with a fixed seed."""
    fam = build_sets(make_group(factors))
    beta = _beta_values(fam, fam.s_pairs)
    values = sorted(set(beta))
    new, old = _MonoidMembership(beta), RefMonoidMembership(beta)
    pairs = [(x, y) for i, x in enumerate(values) for y in values[i + 1 :]]
    if len(pairs) > 100_000:
        rng = random.Random(0)
        overlapping = [(x, y) for x, y in pairs if x & y]
        pairs = rng.sample(overlapping, min(2000, len(overlapping))) + rng.sample(pairs, 2000)
    for v in values + [x | y for x, y in pairs]:
        assert new._contains(v) == old._contains(v), v
        assert new.decomposable(v) == old.decomposable(v), v
