"""Tate cohomology, the closed-form comparison, character components.

Brute-force Tate groups come straight from the definition (invariants /
norm image, norm kernel / augmentation image), each as the lattice pair
(top, bottom) it is the quotient of; the closed form predicts both
groups for inertia modules, and the two must agree as modules, not just
as abelian groups.  A whole module M is the pair (identity, relations).
The package takes the pairs one orbit of coordinates at a time and reads
the verdict off the orbit of coordinate 0; tests/reference.py keeps the
dense whole-module route and its generator-search verdict, which the
differential tests here compare against.
"""

import time
from dataclasses import dataclass
from math import gcd
from unittest import mock

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from grlat import cohomology, polys
from grlat import intmat as im
from grlat.abelian import (
    Subgroup,
    decomposition_subgroup,
    enumerate_subgroups,
    make_group,
    p_split,
    prime_factors,
    quotient_data,
    sylow,
    sylow_complement,
)
from grlat.cli import main
from grlat.cohomology import (
    ChiClass,
    TateResult,
    _root_power_traces,
    character_classes,
    chi_idempotent_matrix,
    complement_generators,
    p_part,
    prediction_data,
    prediction_verdict,
    tate_cohomology,
    tate_key,
    triviality_criterion,
)
from grlat.errors import ParentMismatchError, PrecisionError, ScopeError
from grlat.grouprings import FiniteModule, GroupRing, IdealLattice, group_ring, inertia_module
from grlat.monoid import build_sets
from reference import (
    GENERATOR_SEARCH_CAP,
    ref_action_matrix,
    ref_build_module,
    ref_chi_component,
    ref_chi_idempotent_matrix,
    ref_delta,
    ref_dense,
    ref_dense_tate_cohomology,
    ref_find_cyclic_generator,
    ref_geometric_norm_matrix,
    ref_inertia_module,
    ref_inertia_presentation,
    ref_is_cohomologically_trivial,
    ref_lattice_quotient_coords,
    ref_left_kernel,
    ref_meet,
    ref_module_cyclic_generator,
    ref_module_verdict,
    ref_mult_matrix,
    ref_norm_matrix,
    ref_one,
    ref_p_part,
    ref_pair_coset_representatives,
    ref_pair_cyclic_generator,
    ref_pair_verdict,
    ref_prediction_data,
    ref_preimage_lattice,
    ref_root_power_traces,
    ref_subquotient,
    ref_tate_modules,
    ref_tate_order,
    ref_triviality_criterion,
)


def whole(module):
    """The lattice pair (identity, relations) of a dense module: module
    itself."""
    return im.identity(module.rank), module.relations


def regular_quotient(ring, x):
    """Z[G]/(x), with G acting by translation, as a dense module."""
    rel = IdealLattice.from_elements(ring, [x])
    return ref_build_module(ring.group, rel.basis, [ref_mult_matrix(ring, ref_delta(ring, g)) for g in ring.group.generators()])


def regular_module(ring, m):
    """(Z/m)[G], G acting by translation, in monomial form."""
    n = ring.n
    gens = tuple((ring.shift(ring.index_of(g)), (1,) * n) for g in ring.group.generators())
    mod = FiniteModule(ring.group, m, n, gens)
    mod.validate()
    return mod


def full_inertia_module(n):
    ring = GroupRing(make_group([n]))
    return ring, inertia_module(Subgroup.full(ring.group), ring.group.zero())


def test_tate_trivial_subgroup_vanishes():
    ring, mod = full_inertia_module(3)
    t = tate_cohomology(mod, Subgroup.trivial(ring.group))
    assert ref_tate_order(t.h0) == 1 and ref_tate_order(t.hminus1) == 1


def test_tate_full_group_anchor():
    # A over Z/3 with full inertia is Z/3 with trivial action; H^0(G) = Z/3
    ring, mod = full_inertia_module(3)
    t = tate_cohomology(mod, Subgroup.full(ring.group))
    assert ref_subquotient(ref_dense(mod), *t.h0).invariants() == (3,)
    assert ref_subquotient(ref_dense(mod), *t.hminus1).invariants() == (3,)


def test_tate_induced_module_vanishes():
    # Z[G]/p is induced from the trivial subgroup, so cohomologically trivial
    ring = GroupRing(make_group([9]))
    mod = regular_module(ring, 3)
    for h in (Subgroup.full(ring.group), Subgroup.from_generators(ring.group, [ring.group.element((3,))])):
        t = tate_cohomology(mod, h)
        assert ref_tate_order(t.h0) == 1 and ref_tate_order(t.hminus1) == 1


def test_tate_exponent_bound():
    ring = GroupRing(make_group([3, 9]))
    inertia = Subgroup.from_generators(ring.group, [ring.group.element((1, 0))])
    mod = inertia_module(inertia, ring.group.element((0, 1)))
    for h in (
        Subgroup.full(ring.group),
        Subgroup.from_generators(ring.group, [ring.group.element((0, 3))]),
        Subgroup.from_generators(ring.group, [ring.group.element((1, 3))]),
    ):
        t = tate_cohomology(mod, h)
        for m in (ref_subquotient(ref_dense(mod), *t.h0), ref_subquotient(ref_dense(mod), *t.hminus1)):
            if m.order > 1:
                assert h.order % m.exponent() == 0


def test_closed_form_matches_brute_force_small():
    for facs in ([9], [3, 3]):
        g = make_group(facs)
        for pair in build_sets(g).stilde:
            dec = decomposition_subgroup(pair.inertia, pair.frob)
            mod = inertia_module(pair.inertia, pair.frob)
            for h in enumerate_subgroups(g):
                big, c = prediction_data(dec, tate_key(pair.inertia, h))
                verdicts = prediction_verdict(mod, tate_cohomology(mod, h, 0), big, c)
                assert verdicts == ("pass", "pass"), (facs, pair, h)


@pytest.mark.parametrize(
    "factors", [[2, 2], [2, 4], [3, 3], [2, 2, 2], [6, 6]], ids=lambda f: ",".join(map(str, f))
)
def test_tate_groups_are_equal_within_a_key_class(factors):
    # the verify command computes one (pair, H) row per key tate_key(I, H)
    # and reuses its status for the rest of the class: I acts trivially
    # on the module, so the Tate groups and the per-row reference (B, c)
    # depend on the key alone, and the canonical HNFs make the lattice
    # pairs equal, not just the groups isomorphic
    g = make_group(factors)
    fam = build_sets(g)
    repeats = 0
    for pair in fam.stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        first = {}
        for h in fam.subgroups:
            key = tate_key(pair.inertia, h)
            t = tate_cohomology(mod, h)
            seen = (t, ref_prediction_data(g, pair.inertia, pair.frob, h))
            if key in first:
                repeats += 1
                assert seen == first[key], (factors, pair, h)
            else:
                first[key] = seen
    assert repeats > 0


def test_closed_form_anchor_values():
    def predict(inertia, frob, h):
        return prediction_data(decomposition_subgroup(inertia, frob), tate_key(inertia, h))

    # I = D = G = Z/3, H = G: prediction Z[1]/(3) = Z/3
    g = make_group([3])
    assert predict(Subgroup.full(g), g.zero(), Subgroup.full(g)) == (Subgroup.full(g), 3)
    # trivial H: #(I meet H) = 1 kills the module
    assert predict(Subgroup.full(g), g.zero(), Subgroup.trivial(g)) == (Subgroup.full(g), 1)
    # G = Z/9, I = <3>, frob generating, H = <3>: quotient trivial, Z/3
    g9 = make_group([9])
    i3 = Subgroup.from_generators(g9, [g9.element((3,))])
    assert predict(i3, g9.element((1,)), i3) == (Subgroup.full(g9), 3)
    # I = <3>, frob = 0, H trivial: Z[G/I] = Z[C3] modulo 1, the zero module
    assert predict(i3, g9.zero(), Subgroup.trivial(g9)) == (i3, 1)
    with pytest.raises(ParentMismatchError):
        tate_key(i3, Subgroup.full(g))
    with pytest.raises(ParentMismatchError):
        prediction_data(Subgroup.full(g), tate_key(i3, i3))


def test_cohomological_triviality_anchors():
    ring = GroupRing(make_group([3]))
    # non-zero-divisor quotient of the regular module
    x = ref_one(ring).scale(2) - ref_delta(ring, ring.group.element((2,)))
    mod = regular_quotient(ring, x)
    assert mod.order == 7
    assert ref_is_cohomologically_trivial(mod)
    # full inertia module over Z/3 is not c.t.
    _, bad = full_inertia_module(3)
    assert not ref_is_cohomologically_trivial(ref_dense(bad))
    # trivial inertia: every local part trivial, module c.t.
    triv = inertia_module(Subgroup.trivial(ring.group), ring.group.element((1,)))
    assert ref_is_cohomologically_trivial(ref_dense(triv))


def test_p_part():
    ring = GroupRing(make_group([15]))
    inertia = Subgroup.full(ring.group)
    mod = inertia_module(inertia, ring.group.zero())  # Z/15 trivial action
    m3 = p_part(mod, 3)
    m5 = p_part(mod, 5)
    assert (m3.modulus, m3.rank) == (3, 1) and (m5.modulus, m5.rank) == (5, 1)
    assert p_part(m3, 3) == m3
    assert p_part(mod, 7).rank == 0


def test_character_classes_counts():
    # p = 7 prime to 9: classes of Z/9 under b -> 7b: {0},{3},{6},{1,4,7},{2,5,8}
    g = make_group([9])
    classes = character_classes(g, 7)
    assert len(classes) == 5
    assert sum(1 for c in classes if not any(c.values)) == 1
    orders = sorted(c.order for c in classes)
    assert orders == [1, 3, 3, 9, 9]
    # p = 3: prime-to-3 part is trivial, one trivial class
    classes3 = character_classes(g, 3)
    assert len(classes3) == 1 and not any(classes3[0].values)


def test_complement_generators_orders():
    # prime-to-3 parts: 36 = 9 * 4 gives the generator 9 * e_1 of order 4;
    # the Z/3 factor disappears
    assert complement_generators(make_group([3, 36]), 3) == ((1, 9, 4),)
    assert complement_generators(make_group([2, 6]), 2) == ((1, 2, 3),)
    assert complement_generators(make_group([6, 30]), 5) == ((0, 1, 6), (1, 5, 6))


def test_chi_idempotent_and_components():
    g = make_group([9])
    i3 = Subgroup.from_generators(g, [g.element((3,))])
    mod = inertia_module(i3, g.element((1,)))  # order 63 = 9 * 7
    m7 = ref_dense(p_part(mod, 7))
    classes = character_classes(g, 7)
    orders = []
    for chi in classes:
        comp = ref_chi_component(m7, chi)
        orders.append(comp.order)
    assert sorted(orders) == [1, 1, 1, 1, 7]
    # partition: orders multiply to the p-part order
    prod = 1
    for o in orders:
        prod *= o
    assert prod == m7.order
    # p = 3 side: single class swallows the whole 3-part
    m3 = ref_dense(p_part(mod, 3))
    assert ref_chi_component(m3, character_classes(g, 3)[0]).order == m3.order == 9


def test_chi_idempotent_on_a_p_group_multiplies_only_to_check_idempotence(monkeypatch):
    # the prime-to-p part of Z/256 at p = 2 is trivial, so the sum runs
    # over one identity matrix; no matrix of another group element is made
    g = make_group([256])
    i4 = Subgroup.from_generators(g, [g.element((64,))])
    mod = p_part(inertia_module(i4, g.element((4,))), 2)
    assert mod.rank == 4
    (chi,) = character_classes(g, 2)
    calls = []
    mat_mul = cohomology.im.mat_mul
    monkeypatch.setattr(cohomology.im, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    chi_idempotent_matrix(mod, chi, p_split(mod.modulus, 2)[0])
    assert len(calls) <= 1


def test_chi_component_guards():
    g = make_group([9])
    i3 = Subgroup.from_generators(g, [g.element((3,))])
    mod = inertia_module(i3, g.element((1,)))  # order 63, not 7-primary
    chi = character_classes(g, 7)[0]
    with pytest.raises(ScopeError):
        ref_chi_component(ref_dense(mod), chi)
    m7 = p_part(mod, 7)
    other = make_group([3, 3])
    with pytest.raises(ParentMismatchError):
        chi_idempotent_matrix(m7, character_classes(other, 7)[0], 1)


def test_component_triviality_pair_anchors():
    def pair(group, inertia, p, chi):
        mod = inertia_module(inertia, group.zero())
        [row] = [r for r in triviality_criterion(mod, inertia, group.zero(), p).rows if r.chi == chi]
        return row.component_ct, row.predicted_ct

    # full inertia over Z/3, p = 3, trivial chi: both sides false
    g = make_group([3])
    assert pair(g, Subgroup.full(g), 3, character_classes(g, 3)[0]) == (False, False)
    # inertia with trivial 3-part: both sides true
    g15 = make_group([15])
    i5 = Subgroup.from_generators(g15, [g15.element((3,))])  # order 5
    assert pair(g15, i5, 3, character_classes(g15, 3)[0]) == (True, True)


def test_triviality_criterion_refuses_inputs_of_another_group():
    g, other = make_group([9]), make_group([3, 3])
    mod = inertia_module(Subgroup.full(other), other.zero())
    with pytest.raises(ParentMismatchError):
        triviality_criterion(mod, Subgroup.full(g), g.zero(), 3)
    with pytest.raises(ParentMismatchError):
        triviality_criterion(mod, Subgroup.full(other), g.zero(), 3)


def test_triviality_criterion_sweep_small():
    # 2,6 and 3,6 have a factor with trivial prime-to-p part ahead of one
    # without, so chi must read the coordinates of the factors it lives on
    for facs in ([9], [3, 3], [15], [2, 6], [3, 6]):
        g = make_group(facs)
        for pair in build_sets(g).stilde:
            mod = inertia_module(pair.inertia, pair.frob)
            for p in sorted(prime_factors(g.order)):
                rep = triviality_criterion(mod, pair.inertia, pair.frob, p)
                assert rep.all_agree, (facs, pair, p)


# criterion 5's catalogue, then 2,6, whose p = 2 rows differ in their
# components' triviality, and four groups with several chi or a large
# 2-part
TRIVIALITY_GROUPS = ([9], [27], [3, 3], [15], [3, 9], [2, 6], [2, 2, 2], [2, 4], [36], [2, 2, 8])


def test_lattice_pair_triviality_matches_the_module_route():
    # each chi-component read off the Tate pairs of the closed-form p-part
    # against the route that built the p-part and every component as a
    # module (a Smith step each) and took its Tate groups over every Sylow
    rows, outcomes = 0, set()
    for facs in TRIVIALITY_GROUPS:
        g = make_group(facs)
        for pair in build_sets(g).stilde:
            mod = inertia_module(pair.inertia, pair.frob)
            dense = ref_dense(mod)
            for p in prime_factors(g.order):
                assert ref_dense(p_part(mod, p)) == ref_p_part(dense, p), (facs, pair, p)
                got = triviality_criterion(mod, pair.inertia, pair.frob, p)
                assert got == ref_triviality_criterion(dense, pair.inertia, pair.frob, p), (facs, pair, p)
                rows += len(got.rows)
                outcomes |= {r.component_ct for r in got.rows}
    assert rows == 958 and outcomes == {True, False}


# the criterion-4/5 catalogue, then larger and mixed-prime groups
MONOMIAL_GROUPS = ([9], [27], [3, 3], [15], [3, 9], [2, 2, 8], [4, 16], [3, 27], [12], [21], [28])


@pytest.mark.parametrize("factors", MONOMIAL_GROUPS, ids=str)
def test_closed_form_p_parts_and_chi_idempotents_match_the_dense_routes(factors):
    # every (pair, p): the p-part read off the monomials against the
    # quotient by p^e taken by a Smith step on the dense module, and at
    # the p-part's own precision every class idempotent against the sum
    # of the dense matrices of the prime-to-p part
    g = make_group(factors)
    idempotents = 0
    for pair in build_sets(g).stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        for p in prime_factors(g.order):
            mp = p_part(mod, p)
            dense = ref_dense(mp)
            assert dense == ref_p_part(ref_dense(mod), p), (factors, pair, p)
            k = p_split(mp.modulus, p)[0]
            for chi in character_classes(g, p) if k else ():
                want = ref_chi_idempotent_matrix(dense, chi, k)
                assert chi_idempotent_matrix(mp, chi, k) == want, (factors, pair, p, chi)
                idempotents += 1
    assert idempotents


def test_closed_form_p_part_matches_the_smith_step():
    # (Z/36)^2 with a generator of Z/2 swapping the coordinates and
    # negating them: at p = 2 the units -1 are read mod 4, at p = 3 mod 9
    g = make_group([2])
    mod = FiniteModule(g, 36, 2, (((1, 0), (35, 35)),))
    mod.validate()
    for p, modulus, units in [(2, 4, (3, 3)), (3, 9, (8, 8))]:
        mp = p_part(mod, p)
        assert (mp.modulus, mp.rank, mp.gens) == (modulus, 2, (((1, 0), units),))
        assert ref_dense(mp) == ref_p_part(ref_dense(mod), p)
    assert p_part(mod, 5).rank == 0 and ref_p_part(ref_dense(mod), 5).order == 1


def test_pair_verdict_distinguishes_twists():
    # Z/5 with a generator of Z/4 acting by 2 against (Z/5)[G/G] = Z/5
    # with trivial action: the same order, killed by 5, but G acts
    g = make_group([4])
    m_twist = ref_build_module(g, [[5]], [[[2]]])
    m_triv = ref_build_module(g, [[5]], [[[1]]])
    assert ref_pair_verdict(m_twist, whole(m_twist), Subgroup.full(g), 5) == "fail"
    assert ref_pair_verdict(m_triv, whole(m_triv), Subgroup.full(g), 5) == "pass"
    # with B trivial the prediction is Z/5[C4], of order 5^4
    assert ref_pair_verdict(m_twist, whole(m_twist), Subgroup.trivial(g), 5) == "fail"


def test_pair_verdict_order_and_exponent_mismatch():
    g = make_group([2])
    z2 = ref_build_module(g, [[2]], [[[1]]])
    assert ref_pair_verdict(z2, whole(z2), Subgroup.full(g), 4) == "fail"
    # Z/4 with trivial action has the order of Z/2[C2] = (Z/2)[G/1] but
    # is not killed by 2
    z4 = ref_build_module(g, [[4]], [[[1]]])
    assert z4.order == 2 ** g.order
    assert ref_pair_verdict(z4, whole(z4), Subgroup.trivial(g), 2) == "fail"
    assert ref_pair_verdict(z4, whole(z4), Subgroup.full(g), 4) == "pass"
    with pytest.raises(ParentMismatchError):
        ref_pair_verdict(z4, whole(z4), Subgroup.full(make_group([4])), 4)


def whole_block(module):
    """A monomial module itself as the lattice pair of both Tate groups,
    on all of its coordinates."""
    pair = whole(ref_dense(module))
    return TateResult(pair, pair, tuple(range(module.rank)))


def test_block_verdict_decides_each_test_with_a_return():
    # the rank-1 modules above, each its own orbit, whose stabiliser is G
    g = make_group([4])
    m_twist = FiniteModule(g, 5, 1, (((0,), (2,)),))
    m_triv = FiniteModule(g, 5, 1, (((0,), (1,)),))
    full = Subgroup.full(g)
    # the action test: 1 (A_g - 1) = 1 is not in 5Z
    assert prediction_verdict(m_twist, whole_block(m_twist), full, 5) == ("fail", "fail")
    assert prediction_verdict(m_triv, whole_block(m_triv), full, 5) == ("pass", "pass")
    # the order test
    assert prediction_verdict(m_triv, whole_block(m_triv), full, 25) == ("fail", "fail")
    z4 = FiniteModule(make_group([2]), 4, 1, (((0,), (1,)),))
    assert prediction_verdict(z4, whole_block(z4), Subgroup.full(z4.group), 4) == ("pass", "pass")
    # the cyclicity test: C2 swapping the coordinates of (Z/4)^2, top =
    # <(1, 1), (0, 2)> over bottom = <(2, 2), (0, 4)> is Z/2 + Z/2 with
    # trivial action, of order 4 = c, but [top : bottom + 2 top] = 4
    swap = FiniteModule(make_group([2]), 4, 2, (((1, 0), (1, 1)),))
    assert swap.transitive
    pair = ([[1, 1], [0, 2]], [[2, 2], [0, 4]])
    assert im.hnf(pair[1], 2) == pair[1] and ref_tate_order(pair) == 4
    block = TateResult(pair, whole(ref_dense(swap)), (0, 1))
    assert prediction_verdict(swap, block, Subgroup.full(swap.group), 4) == ("fail", "fail")
    assert ref_pair_verdict(ref_dense(swap), pair, Subgroup.full(swap.group), 4) == "fail"
    with pytest.raises(ParentMismatchError):
        prediction_verdict(z4, whole_block(z4), Subgroup.full(g), 4)


def test_block_verdict_refuses_what_it_cannot_decide():
    g = make_group([4])
    m_twist = FiniteModule(g, 5, 1, (((0,), (2,)),))
    # B trivial is not the stabiliser G of the one orbit
    with pytest.raises(ScopeError):
        prediction_verdict(m_twist, whole_block(m_twist), Subgroup.trivial(g), 5)
    # (Z/3)^2 with trivial action: G does not join its two coordinates
    flat = FiniteModule(make_group([2]), 3, 2, (((0, 1), (1, 1)),))
    assert not flat.transitive
    block = tate_cohomology(flat, Subgroup.full(flat.group), 0)
    with pytest.raises(ScopeError):
        prediction_verdict(flat, block, Subgroup.full(flat.group), 3)


def test_coset_representatives_and_generator_search():
    ring = GroupRing(make_group([3]))
    mod = regular_quotient(ring, ref_one(ring).scale(2))
    reps = list(ref_pair_coset_representatives(whole(mod)))
    assert reps == list(im.hnf_residues(mod.relations)) and len(reps) == mod.order == 8
    x, complete = ref_pair_cyclic_generator(mod, whole(mod))
    assert complete and x is not None
    # (Z/3)^2 with trivial action needs two generators
    g = make_group([3])
    flat = ref_build_module(g, [[3, 0], [0, 3]], [[[1, 0], [0, 1]]])
    x, complete = ref_pair_cyclic_generator(flat, whole(flat))
    assert complete and x is None


def test_closure_generator_search_matches_the_image_route_on_hand_built_modules():
    ring = GroupRing(make_group([3]))
    modules = [
        regular_quotient(ring, ref_one(ring).scale(2)),
        ref_build_module(ring.group, [[3, 0], [0, 3]], [[[1, 0], [0, 1]]]),
        # C2 acting as diag(1, 2) on Z/3 + Z/3: neither basis vector
        # generates, (1, 1) does, and only the coset walk finds it
        ref_build_module(make_group([2]), [[3, 0], [0, 3]], [[[1, 0], [0, 2]]]),
    ]
    for mod in modules:
        assert ref_pair_cyclic_generator(mod, whole(mod)) == ref_find_cyclic_generator(mod)
    assert ref_pair_cyclic_generator(modules[-1], whole(modules[-1])) == ((1, 1), True)


def test_pair_verdict_cyclicity_mismatch():
    # (Z/3)^2 with trivial action against Z/3[C2] = (Z/3)[G/1], C2 swapping
    # the coordinates: the same abelian group, both killed by 3 and by
    # the trivial B, but only the second is cyclic; the walk proves the
    # first is not
    g = make_group([2])
    flat = ref_build_module(g, [[3, 0], [0, 3]], [[[1, 0], [0, 1]]])
    regular = ref_build_module(g, [[3, 0], [0, 3]], [[[0, 1], [1, 0]]])
    assert flat.invariants() == regular.invariants()
    assert ref_pair_cyclic_generator(flat, whole(flat)) == (None, True)
    assert ref_pair_verdict(flat, whole(flat), Subgroup.trivial(g), 3) == "fail"
    assert ref_pair_verdict(regular, whole(regular), Subgroup.trivial(g), 3) == "pass"


def test_generator_search_past_the_cap():
    # Z/2[C16] has 2^16 elements, too many to walk, and e_1 generates it
    g = make_group([16])
    ring = GroupRing(g)
    regular = regular_quotient(ring, ref_one(ring).scale(2))
    assert regular.order > GENERATOR_SEARCH_CAP
    assert ref_pair_coset_representatives(whole(regular)) is None
    x, complete = ref_pair_cyclic_generator(regular, whole(regular))
    assert complete and x == [1] + [0] * 15
    assert ref_pair_verdict(regular, whole(regular), Subgroup.trivial(g), 2) == "pass"
    # (Z/2)^16 with trivial action: the order and annihilator of
    # Z/2[C16], but no basis vector generates and the walk that would
    # prove it non-cyclic is over the cap
    n = 16
    flat = ref_build_module(g, [[2 * (i == j) for j in range(n)] for i in range(n)], [im.identity(n)])
    assert flat.order > GENERATOR_SEARCH_CAP
    assert ref_pair_cyclic_generator(flat, whole(flat)) == (None, False)
    assert ref_pair_verdict(flat, whole(flat), Subgroup.trivial(g), 2) == "undecided"


def test_prediction_is_generated_by_the_first_basis_vector():
    g = make_group([3, 3])
    for pair in build_sets(g).stilde:
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        for h in enumerate_subgroups(g):
            pred = ref_closed_form_inertia_tate(g, pair.inertia, pair.frob, h)
            big, c = prediction_data(dec, tate_key(pair.inertia, h))
            assert ref_pair_verdict(pred, whole(pred), big, c) == "pass", (pair, h)
            if pred.order > 1:
                x, _ = ref_pair_cyclic_generator(pred, whole(pred))
                assert x == im.identity(pred.rank)[0], (pair, h)


# -- reference: the prediction built as a module, compared two-sidedly ----
# Verbatim copies of the closed-form module, the annihilator lattice and
# the two-sided module comparison that the prediction's defining ideal
# replaced.


@dataclass(frozen=True)
class RefComparisonOutcome:
    decided: bool
    isomorphic: bool | None
    method: str


def ref_closed_form_inertia_tate(group, inertia, frob, sub):
    """Predicted Tate module of an inertia module: the group ring of the
    quotient by (decomposition subgroup + sub), modulo #(inertia meet sub)."""
    dec = inertia.join(Subgroup.from_generators(frob.group, [frob]))
    big = dec.join(sub)
    c = ref_meet(inertia, sub).order
    qd = quotient_data(group, big)
    qring = group_ring(qd.group)
    n = qring.n
    relations = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    actions = [ref_mult_matrix(qring, ref_delta(qring, qd.proj(g))) for g in group.generators()]
    return ref_build_module(group, relations, actions)


def ref_annihilator_lattice(module, x):
    """The lattice {c in Z^{|G|} : sum_g c_g (x.g) lies in relations}."""
    rows = [im.vec_mat(list(x), ref_action_matrix(module, g)) for g in module.group.elements()]
    return ref_preimage_lattice(rows, [list(r) for r in module.relations])


def ref_module_equivalent(m1, m2):
    """Decide whether two finite modules over the same group are
    isomorphic as modules.

    Route 1: abelian invariants must match.  Route 2: two cyclic modules
    over the group ring are isomorphic exactly when their annihilator
    lattices coincide (every generator of a cyclic module has the same
    annihilator), and a cyclic module is never isomorphic to one proven
    non-cyclic.  Whatever remains is reported undecided rather than
    approximated.
    """
    if m1.group != m2.group:
        raise ParentMismatchError("modules over different groups")
    if m1.invariants() != m2.invariants():
        return RefComparisonOutcome(True, False, "abelian-invariants")
    if m1.order == 1:
        return RefComparisonOutcome(True, True, "both-trivial")

    x1, full1 = ref_module_cyclic_generator(m1)
    x2, full2 = ref_module_cyclic_generator(m2)
    if x1 is not None and x2 is not None:
        a1 = ref_annihilator_lattice(m1, x1)
        a2 = ref_annihilator_lattice(m2, x2)
        return RefComparisonOutcome(True, a1 == a2, "cyclic-annihilator")
    if not (full1 and full2):
        return RefComparisonOutcome(False, None, "skipped:generator-search-capacity")
    if x1 is None and x2 is None:
        return RefComparisonOutcome(False, None, "skipped:both-noncyclic")
    return RefComparisonOutcome(True, False, "cyclicity-mismatch")


# 1999 (pair, H) rows in all
OLD_ROUTE_GROUPS = ([9], [27], [3, 3], [15], [3, 9], [2, 4], [2, 6], [12], [16], [2, 2, 2])


@pytest.mark.parametrize("factors", OLD_ROUTE_GROUPS)
def test_prediction_verdict_matches_two_sided_comparison(factors):
    g = make_group(factors)
    subs = enumerate_subgroups(g)
    for pair in build_sets(g).stilde:
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        mod = inertia_module(pair.inertia, pair.frob)
        for h in subs:
            t = tate_cohomology(mod, h)
            pred = ref_closed_form_inertia_tate(g, pair.inertia, pair.frob, h)
            big, c = prediction_data(dec, tate_key(pair.inertia, h))
            old = []
            for side in (t.h0, t.hminus1):
                out = ref_module_equivalent(ref_subquotient(ref_dense(mod), *side), pred)
                old.append(("pass" if out.isomorphic else "fail") if out.decided else "undecided")
            assert prediction_verdict(mod, tate_cohomology(mod, h, 0), big, c) == tuple(old), (factors, pair, h)


@pytest.mark.parametrize("factors", OLD_ROUTE_GROUPS)
def test_norm_and_generator_search_match_the_whole_group_routes(factors):
    # the reference's dense route against the whole-group routes it
    # replaced: the norm as a product of geometric sums over sub.basis
    # against the element sum, column j compared mod d_j as a module map
    # is only defined there; the closure generator test against the
    # images under every element of the group, on every Tate group taken
    # as a module, and on its lattice pair, where only whether a
    # generator is found and the walk completed can be compared
    g = make_group(factors)
    subs = enumerate_subgroups(g)
    for pair in build_sets(g).stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        dense = ref_dense(mod)
        d = dense.invariants()
        for h in subs:
            mats = {g: ref_action_matrix(dense, g) for g in h.generators()}
            nm, ref = ref_geometric_norm_matrix(dense, h, mats), ref_norm_matrix(dense, h)
            assert all((x - y) % m == 0 for r, s in zip(nm, ref) for x, y, m in zip(r, s, d)), (factors, pair, h)
            t = tate_cohomology(mod, h)
            for side in (t.h0, t.hminus1):
                sq = ref_subquotient(dense, *side)
                ref_x, ref_full = ref_find_cyclic_generator(sq)
                assert ref_pair_cyclic_generator(sq, whole(sq)) == (ref_x, ref_full), (factors, pair, h)
                x, full = ref_pair_cyclic_generator(dense, side)
                assert (x is None, full) == (ref_x is None, ref_full), (factors, pair, h)


@pytest.mark.parametrize("factors", [[6], [12], [15], [3, 6], [2, 6]])
def test_chi_idempotents_match_power_tables_and_sum_to_one(factors):
    # the monomials compose their units mod the modulus and the dense
    # products do not, so past the p-part's own precision e an idempotent
    # is compared with the dense one mod p^e; the sum over chi is the
    # identity mod p^prec whatever the units are
    g = make_group(factors)
    for pair in build_sets(g).stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        for p in prime_factors(g.order):
            mp = p_part(mod, p)
            e, _ = p_split(mp.modulus, p)
            for prec in {max(e, 1), e + 1}:
                q = p**prec
                total = im.zeros(mp.rank, mp.rank)
                for chi in character_classes(g, p):
                    ep = chi_idempotent_matrix(mp, chi, prec)
                    want = ref_chi_idempotent_matrix(ref_dense(mp), chi, prec)
                    assert all(
                        (x - y) % gcd(q, mp.modulus) == 0 for r, s in zip(ep, want) for x, y in zip(r, s)
                    ), (factors, pair, p, chi)
                    total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, ep)]
                assert all(
                    (x - (i == j)) % q == 0 for i, row in enumerate(total) for j, x in enumerate(row)
                ), (factors, pair, p)


@pytest.mark.parametrize("factors", [[12], [15], [2, 6], [3, 6], [6, 6]])
def test_complement_matrices_are_the_element_matrices(factors):
    # each element of the prime-to-p part, stepped by one composition
    # from an earlier one, against the element monomials: the same order,
    # the same coordinates and the same monomials; 3,6 and 6,6 at p = 2
    # have two digits, so a digit wraps
    g = make_group(factors)
    for pair in build_sets(g).stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        for p in prime_factors(g.order):
            got = list(cohomology._complement_actions(mod, complement_generators(g, p)))
            want = [(d.coords, mod.act(d)) for d in sylow_complement(g, p).elements()]
            assert got == want, (factors, pair, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_root_power_traces_match_the_hensel_route(p, monkeypatch):
    # every m < 40 prime to p at six precisions, 1104 cases over the six
    # primes; a fresh memo, so every case is computed here
    monkeypatch.setattr(cohomology, "_LIFT_CACHE", {})
    for m in range(1, 40):
        if gcd(m, p) == 1:
            for prec in (1, 2, 3, 4, 5, 7):
                assert _root_power_traces(m, p, prec) == ref_root_power_traces(m, p, prec), (m, p, prec)


def test_root_power_traces_need_precision():
    with pytest.raises(PrecisionError):
        _root_power_traces(7, 2, 0)


def test_triviality_factors_each_cyclotomic_once_per_prime(capsys, monkeypatch):
    # the sweeps of Z/24 and Z/36 ask for traces at several precisions
    # of one (m, p), but the mod-p idempotent is memoised per (m, p)
    monkeypatch.setattr(cohomology, "_LIFT_CACHE", {})
    real = polys.factor_cyclotomic_mod_p
    calls = []

    def spy(m, p):
        calls.append((m, p))
        return real(m, p)

    monkeypatch.setattr(polys, "factor_cyclotomic_mod_p", spy)
    for group in ("24", "36"):
        assert main(["verify", group, "--checks", "triviality"]) == 0
    capsys.readouterr()
    lifts = {key[:2] for key in cohomology._LIFT_CACHE if len(key) == 3 and key[0] > 1}
    assert len(calls) == len(set(calls)) == len(lifts) == 5
    assert sum(len(key) == 3 and key[0] > 1 for key in cohomology._LIFT_CACHE) > len(lifts)


def test_chi_idempotent_check_catches_corrupted_traces(monkeypatch):
    # Z/9 with C2 acting by -1, the sign component of its own 3-part.
    # The stored unit is only defined mod 9, so mod 27 the idempotent
    # reads (1/2)(1 - 8) = 10: idempotent mod gcd(27, 9) only
    g = make_group([2])
    mod = FiniteModule(g, 9, 1, (((0,), (8,)),))
    sign = ChiClass(3, (2,), (1,))
    assert chi_idempotent_matrix(mod, sign, 2) == [[1]]
    assert chi_idempotent_matrix(mod, sign, 3) == [[10]]
    # doubled traces give 2e, whose square 4e is not 2e on the module
    real = cohomology._root_power_traces
    monkeypatch.setattr(
        cohomology, "_root_power_traces", lambda m, p, prec: [2 * t for t in real(m, p, prec)]
    )
    with pytest.raises(PrecisionError):
        chi_idempotent_matrix(mod, sign, 2)


# -- reference: inertia modules by the orbit route ----------------------------
# The closed form against the route it replaced (reference.ref_inertia_module):
# the HNF of the orbit of a - fbar^-1 in Z[G/I], moved to Smith coordinates
# by ref_build_module.

# criterion 4's catalogue: 668 (pair, H) rows
CRITERION_4_GROUPS = ([9], [27], [3, 3], [15], [3, 9])

ORBIT_ROUTE_GROUPS = (
    [8], [16], [2, 4], [2, 2, 2], [64], [81], [100], [128],
    [2, 2, 8], [4, 16], [2, 2, 2, 2], [3, 27],
)


@pytest.mark.parametrize("factors", CRITERION_4_GROUPS + ORBIT_ROUTE_GROUPS)
def test_smith_presentation_matches_the_build_rank_presentation(factors):
    g = make_group(factors)
    for pair in build_sets(g).stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        a = 1 + pair.inertia.order
        m = a ** (dec.order // pair.inertia.order) - 1
        d = (m,) * (g.order // dec.order) if m > 1 else ()
        assert (mod.modulus,) * mod.rank == d, (factors, pair)
        assert d == ref_inertia_module(pair.inertia, pair.frob).invariants(), (factors, pair)


# criterion 4's catalogue and 8, 2,4 and 2,2,2
@pytest.mark.parametrize("factors", CRITERION_4_GROUPS + ([8], [2, 4], [2, 2, 2]))
def test_closed_form_tate_groups_match_the_orbit_route(factors):
    g = make_group(factors)
    subs = enumerate_subgroups(g)
    for pair in build_sets(g).stilde:
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        mod = inertia_module(pair.inertia, pair.frob)
        ref = ref_inertia_module(pair.inertia, pair.frob)
        for h in subs:
            t, t_ref = tate_cohomology(mod, h), ref_dense_tate_cohomology(ref, h)
            big, c = prediction_data(dec, tate_key(pair.inertia, h))
            verdicts = prediction_verdict(mod, tate_cohomology(mod, h, 0), big, c)
            sides = ((t.h0, t_ref.h0), (t.hminus1, t_ref.hminus1))
            for verdict, (side, ref_side) in zip(verdicts, sides):
                invariants = ref_subquotient(ref_dense(mod), *side).invariants()
                assert invariants == ref_subquotient(ref, *ref_side).invariants(), (factors, pair, h)
                assert verdict == ref_pair_verdict(ref, ref_side, big, c), (factors, pair, h)


# criterion 4's catalogue, then noncyclic 2-groups with many subgroups
# per key class
@pytest.mark.parametrize("factors", CRITERION_4_GROUPS + ([2, 4], [2, 2, 2], [2, 2, 4]))
def test_keyed_prediction_data_matches_the_per_row_route(factors):
    # B = D + (H + I) with c read off tate_key, against B = I + <frob> + H
    # and c = #I #H / #(I + H) built from the pair and H alone
    g = make_group(factors)
    subs = enumerate_subgroups(g)
    for pair in build_sets(g).stilde:
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        for h in subs:
            keyed = prediction_data(dec, tate_key(pair.inertia, h))
            assert keyed == ref_prediction_data(g, pair.inertia, pair.frob, h), (factors, pair, h)


@pytest.mark.parametrize("factors", CRITERION_4_GROUPS + ([8], [16], [2, 4], [2, 2, 2]))
def test_orbit_route_invariants_match_sympy(factors):
    g = make_group(factors)
    checked = 0
    for pair in build_sets(g).stilde:
        if g.order // pair.inertia.order > 16:
            continue
        rel, _ = ref_inertia_presentation(pair.inertia, pair.frob)
        snf = smith_normal_form(Matrix(rel), domain=ZZ)
        want = tuple(sorted(x for x in (abs(int(snf[i, i])) for i in range(len(rel))) if x > 1))
        assert ref_inertia_module(pair.inertia, pair.frob).invariants() == want, (factors, pair)
        checked += 1
    assert checked


# -- reference: Tate groups built as fresh presentations ------------------------
# Verbatim copies of the route before FiniteModule.subquotient, against
# the subquotients of tate_cohomology's lattice pairs: the
# invariants as one preimage and one intersection per generator of H, and
# each quotient re-solved against its big lattice and rebuilt, validation
# included, by ref_build_module.


def ref_lattice_intersection(a_rows, b_rows):
    """Basis of (row span A) ∩ (row span B)."""
    if not a_rows or not b_rows:
        return []
    stacked = [list(r) for r in a_rows] + [[-x for x in r] for r in b_rows]
    ker = ref_left_kernel(stacked)
    na = len(a_rows)
    out = [im.vec_mat(k[:na], a_rows) for k in ker]
    return im.hnf(out) if out else []


def ref_quotient_module(group, big_rows, small_rows, gen_actions):
    k, s = len(big_rows), len(small_rows)
    images = [im.vec_mat(list(r), a) for a in gen_actions for r in big_rows]
    coords = ref_lattice_quotient_coords(big_rows, [list(r) for r in small_rows] + images)
    actions = [coords[s + i * k : s + (i + 1) * k] for i in range(len(gen_actions))]
    return ref_build_module(group, coords[:s], actions)


def ref_tate_cohomology(module, sub):
    n = module.rank
    rel = [list(r) for r in module.relations]
    gens = sub.generators()

    inv = im.identity(n)
    for h in gens:
        a = ref_action_matrix(module, h)
        d = [[a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        pre = ref_preimage_lattice(d, rel)
        inv = ref_lattice_intersection(inv, pre)

    nm = ref_norm_matrix(module, sub)
    norm_image = im.lattice_sum([im.vec_mat(list(e), nm) for e in im.identity(n)], rel)
    h0 = ref_quotient_module(module.group, inv, norm_image, module.gen_actions)

    ker = ref_preimage_lattice(nm, rel)
    aug_rows = list(rel)
    for h in gens:
        a = ref_action_matrix(module, h)
        for i in range(n):
            aug_rows.append([a[i][j] - (1 if i == j else 0) for j in range(n)])
    aug = im.hnf(aug_rows, n)
    hm1 = ref_quotient_module(module.group, ker, aug, module.gen_actions)
    return h0, hm1


# 1999 + 3105 (pair, H) rows; 2,2,4 has subgroups H of rank 3
@pytest.mark.parametrize("factors", OLD_ROUTE_GROUPS + ([2, 2, 4],))
def test_subquotient_tate_groups_match_the_rebuilt_presentations(factors):
    g = make_group(factors)
    subs = enumerate_subgroups(g)
    for pair in build_sets(g).stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        dense = ref_dense(mod)
        for h in subs:
            t = tate_cohomology(mod, h)
            got = (ref_subquotient(dense, *t.h0), ref_subquotient(dense, *t.hminus1))
            assert got == ref_tate_cohomology(dense, h), (factors, pair, h)


@pytest.mark.parametrize("factors", CRITERION_4_GROUPS + ([2, 2, 8],))
def test_kernel_mod_tate_groups_match_the_preimage_route(factors):
    # both kernels of tate_cohomology, by kernel_mod and image_kernel_mod,
    # against the same call with the left-kernel route they replaced
    # patched in: the preimage of diag(d), repeated once per generator of
    # H for the invariants, and the norm image by its own HNF; one H per
    # key of each pair, as the verify command computes them
    routed = []

    def preimage_route(rows, mods):
        routed.append(len(mods))
        return ref_preimage_lattice(rows, im.diagonal(mods))

    def image_preimage_route(rows, mods):
        return im.hnf(rows, len(mods), mods), preimage_route(rows, mods)

    fam = build_sets(make_group(factors))
    compared = 0
    for pair in fam.stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        first = {}
        for h in fam.subgroups:
            first.setdefault(tate_key(pair.inertia, h), h)
        for h in first.values():
            got = tate_cohomology(mod, h)
            blocks = len(routed)
            with mock.patch.object(im, "kernel_mod", preimage_route), mock.patch.object(
                im, "image_kernel_mod", image_preimage_route
            ):
                assert got == tate_cohomology(mod, h), (factors, pair, h)
            # two kernels for each orbit of H on the coordinates
            orbits = {tate_cohomology(mod, h, t).coords for t in range(mod.rank)}
            assert len(routed) - blocks == 2 * len(orbits), (factors, pair, h)
            compared += 1
    assert compared


# criterion 4's catalogue, then noncyclic 2-groups with many subgroups
# per key class
@pytest.mark.parametrize("factors", CRITERION_4_GROUPS + ([2, 4], [2, 2, 2], [2, 2, 4]))
def test_lattice_pair_verdicts_match_the_module_route(factors):
    # every (pair, H) row of the verify command: the block verdict and
    # the order of both Tate groups read off their lattice pairs, against
    # the subquotient modules and the verdict on them
    # (tests/reference.py).  Each row is compared at the prediction
    # (B, c), which passes, and at (B, c + 1), which fails
    g = make_group(factors)
    fam = build_sets(g)
    seen = set()
    for pair in fam.stilde:
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        mod = inertia_module(pair.inertia, pair.frob)
        for h in fam.subgroups:
            t, block, ref = tate_cohomology(mod, h), tate_cohomology(mod, h, 0), ref_tate_modules(ref_dense(mod), h)
            for side, ref_side in ((t.h0, ref.h0), (t.hminus1, ref.hminus1)):
                assert ref_tate_order(side) == ref_side.order, (factors, pair, h)
            big, c = prediction_data(dec, tate_key(pair.inertia, h))
            for claim in (c, c + 1):
                verdicts = prediction_verdict(mod, block, big, claim)
                want = tuple(ref_module_verdict(side, big, claim) for side in ref)
                assert verdicts == want, (factors, pair, h, big, claim)
                seen.update(verdicts)
    assert seen == {"pass", "fail"}


# -- the Tate route of the package against the dense route --------------------


@pytest.mark.parametrize("factors", CRITERION_4_GROUPS + ([8], [12], [2, 4], [2, 6], [2, 2, 2]))
def test_blockwise_tate_pairs_are_the_dense_pairs(factors):
    # the union of the orbits' canonical HNFs against the HNFs of the
    # whole module from dense matrices, for every (pair, H) and for the
    # p-part of every pair over each Sylow subgroup, as triviality reads
    # them: the same lattices, and the same canonical bases
    g = make_group(factors)
    fam = build_sets(g)
    for pair in fam.stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        cases = [(mod, h) for h in fam.subgroups]
        cases += [(p_part(mod, p), sylow(g, p)) for p in prime_factors(g.order)]
        for module, h in cases:
            got, want = tate_cohomology(module, h), ref_dense_tate_cohomology(ref_dense(module), h)
            assert (got.h0, got.hminus1) == (want.h0, want.hminus1), (factors, pair, h)
            assert got.coords == tuple(range(module.rank))


def rank_512_module():
    """The inertia module of (I, 0), I of order 2 in Z/1024: D = I, so
    it is (Z/2)^512, the largest module verify 1024 builds."""
    g = make_group([1024])
    inertia = Subgroup.from_generators(g, [g.element((512,))])
    return inertia, inertia_module(inertia, g.zero())


# the criterion-4/5 catalogue, then the groups of the largest tate sweeps
# that tier 1 runs
BLOCK_VERDICT_GROUPS = CRITERION_4_GROUPS + ([2, 2, 8], [4, 16], [3, 27])


@pytest.mark.parametrize("factors", BLOCK_VERDICT_GROUPS, ids=lambda f: ",".join(map(str, f)))
def test_block_verdict_matches_the_full_pair_verdict(factors):
    # the verdict read off the orbit of coordinate 0 against the dense
    # route's verdict on the whole Tate pairs (coset walk and generator
    # search included), one H per key of each pair as verify computes
    # them, at the prediction (B, c) and at (B, c + 1)
    g = make_group(factors)
    fam = build_sets(g)
    keys = 0
    for pair in fam.stilde:
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        mod = inertia_module(pair.inertia, pair.frob)
        dense = ref_dense(mod)
        first = {}
        for h in fam.subgroups:
            first.setdefault(tate_key(pair.inertia, h), h)
        for key, h in first.items():
            t, block = tate_cohomology(mod, h), tate_cohomology(mod, h, 0)
            big, c = prediction_data(dec, key)
            for claim in (c, c + 1):
                want = tuple(ref_pair_verdict(dense, side, big, claim) for side in (t.h0, t.hminus1))
                assert prediction_verdict(mod, block, big, claim) == want, (factors, pair, h, claim)
            keys += 1
    assert keys


def test_block_verdict_matches_the_full_pair_verdict_on_the_rank_512_module():
    # H = G and three of its subgroups; at #H = 128 the generator
    # search of the full pair takes about a second, and it grows as #H
    # falls
    inertia, mod = rank_512_module()
    g, dense = mod.group, ref_dense(mod)
    dec = decomposition_subgroup(inertia, g.zero())
    for k in (1, 2, 4, 8):
        h = Subgroup.from_generators(g, [g.element((k,))])
        big, c = prediction_data(dec, tate_key(inertia, h))
        t, block = tate_cohomology(mod, h), tate_cohomology(mod, h, 0)
        assert len(block.coords) == h.order // 2
        want = tuple(ref_pair_verdict(dense, side, big, c) for side in (t.h0, t.hminus1))
        assert prediction_verdict(mod, block, big, c) == want == ("pass", "pass"), k


def test_the_whole_group_key_of_the_rank_512_module_takes_seconds():
    # at H = G the dense norm took 1023 products of 512 x 512 matrices
    # and tate_cohomology about 28 s; the monomial norm is a sum over the
    # 1024 elements.  The block verdict and the full pair (which the
    # triviality sweep takes over the 2-Sylow, G) each took under a
    # second on a 2-core machine
    inertia, mod = rank_512_module()
    g = mod.group
    t0 = time.monotonic()
    big, c = prediction_data(decomposition_subgroup(inertia, g.zero()), tate_key(inertia, Subgroup.full(g)))
    assert prediction_verdict(mod, tate_cohomology(mod, Subgroup.full(g), 0), big, c) == ("pass", "pass")
    t = tate_cohomology(mod, Subgroup.full(g))
    assert ref_tate_order(t.h0) == ref_tate_order(t.hminus1) == 2
    assert time.monotonic() - t0 < 10.0
