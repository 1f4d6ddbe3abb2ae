"""Lattice representatives of ramified classes and the exact certificates.

Frozen index anchors pin the forward representative's dependence on the
coset lift; the kernel, extension and unit-transport certificates are
exercised on small groups here (wider sweeps live in the acceptance
suite).  The kernel check's index identity is compared with the
left-kernel route it replaced, kept here as the reference, and with the
three-HNF route that followed it; the forward representative's index,
read in Z[G]/(g), with the HNF index of its orbit matrix; its
closed-form principal index with the HNF index of the principal ideal
and with sympy's resultant;
and the backward lattice of an inertia group, stored as #I L, with the
per-pair rational (den, basis) route it replaced, for every Frobenius.  Unit
transport's geometric-sum witness is compared with the unit that route
solved for modulo p^M, and the p-adic lattice comparison a unit row
made after its witness, kept in the reference, is checked to pass
wherever the witness does.  The witness identity, checked on the walk
of phi_a^{-1} over the canonical lifts mod I, is compared with the same
identity on N_I Z[G] and with its dense product in Z[G/I] in Smith
coordinates, the two routes it replaced, and a unit sweep is spied on
for any Smith form, quotient group or group-ring arithmetic.
The extension check, read off the cosets of I, is compared flag by flag
with the multiplication-matrix, left-kernel and Smith-form route it
replaced, and an ext sweep is spied on for any of those.
"""

import contextlib
import inspect
import io
import sys
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
import sympy

import grlat.intmat as im
from grlat import cli, lattices
from grlat.abelian import (
    Subgroup,
    canonical_lift,
    decomposition_subgroup,
    enumerate_subgroups,
    make_group,
    prime_factors,
    quotient_data,
)
from grlat.errors import (
    ContainmentError,
    ParentMismatchError,
    ScopeError,
    UnitNotFoundError,
)
from grlat.grouprings import GroupRing, GroupRingElem, IdealLattice, group_ring
from grlat.monoid import build_sets
from grlat.lattices import (
    ExtensionReport,
    KernelReport,
    _forward_generators,
    _kernel_identity,
    _principal_index,
    _projection_index,
    backward_rep,
    forward_rep,
    verify_extension_sequence,
    verify_kernel_presentation,
    verify_unit_transport,
)

import reference
from reference import (
    ref_backward_ideal,
    ref_backward_rep,
    ref_delta,
    ref_kernel_identity,
    ref_lattice_eq,
    ref_lattice_quotient_coords,
    ref_left_kernel,
    ref_mult_matrix,
    ref_norm_element,
    ref_one,
    ref_preimage_is_standard,
    ref_projection_index,
    ref_unit_comparison,
    ref_unit_transport_in_quotient,
    ref_unit_witness,
    ref_verify_extension_sequence,
    ref_verify_unit_on_norm_copy,
    ref_verify_unit_transport,
    unit_route_outcome,
)
from test_acceptance import P_GROUPS_27
from test_negative_controls import PERTURBED_GROUPS, ext_on, perturbation_set
from test_bench_digests import EXPECTED, report_digest


def ring_of(facs):
    return GroupRing(make_group(facs))


def unit_pairs(group):
    """The pairs of pairs a unit sweep compares: equal projections, so
    the same inertia and decomposition subgroups."""
    fam = build_sets(group)
    for i, a in enumerate(fam.stilde):
        for j, b in enumerate(fam.stilde[i + 1 :], i + 1):
            if fam.projection[i] == fam.projection[j]:
                yield a, b


def test_canonical_lift_is_lex_least():
    g = make_group([9])
    i3 = Subgroup.from_generators(g, [g.element((3,))])
    # coset of 5 is {5, 8, 2}; lex-least coordinate tuple is (2,)
    assert canonical_lift(i3, g.element((5,))).coords == (2,)
    assert canonical_lift(i3, g.element((3,))).coords == (0,)
    other = make_group([3])
    with pytest.raises(ParentMismatchError):
        canonical_lift(i3, other.element((1,)))


def test_forward_rep_depends_on_lift():
    r = ring_of([3])
    full = Subgroup.full(r.group)
    zero = r.group.zero()
    idx = {}
    for k in range(3):
        _, lat = forward_rep(r, full, zero, lift=r.group.element((k,)))
        idx[k] = lat.integral_index()
    assert idx[0] == 9
    assert idx[1] == idx[2] == 21


def test_forward_rep_anchor_z9():
    r = ring_of([9])
    i3 = Subgroup.from_generators(r.group, [r.group.element((3,))])
    frob = r.group.element((1,))
    indices = set()
    for k in (1, 4, 7):
        lift, lat = forward_rep(r, i3, frob, lift=r.group.element((k,)))
        assert lift.coords == (k,)
        indices.add(lat.integral_index())
    assert indices == {4161}
    # default lift is the canonical one
    assert forward_rep(r, i3, frob)[0].coords == (1,)


def test_forward_rep_guards():
    r = ring_of([3, 3])
    with pytest.raises(ScopeError):
        forward_rep(r, Subgroup.full(r.group), r.group.zero())
    rc = ring_of([9])
    i3 = Subgroup.from_generators(rc.group, [rc.group.element((3,))])
    with pytest.raises(ContainmentError):
        forward_rep(rc, i3, rc.group.element((1,)), lift=rc.group.element((2,)))


def test_kernel_presentation_small_sweep():
    from grlat.abelian import enumerate_subgroups

    for facs in ([4], [6], [9]):
        r = ring_of(facs)
        for sub in enumerate_subgroups(r.group):
            if sub.is_trivial:
                continue
            for frob in r.group.elements():
                rep = verify_kernel_presentation(r, sub, frob)
                assert rep.ok, (facs, sub, frob)


def test_kernel_presentation_z27_spot():
    r = ring_of([27])
    i3 = Subgroup.from_generators(r.group, [r.group.element((9,))])
    rep = verify_kernel_presentation(r, i3, r.group.element((1,)))
    assert rep.kernel_matches and rep.projection_matches
    with pytest.raises(ScopeError):
        verify_kernel_presentation(r, Subgroup.trivial(r.group), r.group.zero())


def shift_generator(ring, order, lift):
    return ref_one(ring) - ref_delta(ring, -lift) + ref_one(ring).scale(order)


def terms(x):
    """The term map {j: c}, c != 0, of a dense element x of Z[C_n]."""
    return {j: c for j, c in enumerate(x.coeffs) if c}


def claimed_generators(ring, inertia, lift, norm_scale=1, tau_scale=1):
    """(N_I, 0) and (g, 1 - tau); norm_scale multiplies N_I and tau_scale
    multiplies 1 - tau, to perturb the claim."""
    tau = ring.group.element(inertia.basis[0])
    g = shift_generator(ring, inertia.order, lift)
    zero = ref_one(ring).scale(0)
    return [
        (ref_norm_element(ring, inertia).scale(norm_scale), zero),
        (g, (ref_one(ring) - ref_delta(ring, tau)).scale(tau_scale)),
    ]


def ref_kernel_presentation(ring, inertia, lift, claimed):
    """Reference: the left-kernel route.  The kernel of
    (a, b) |-> a (tau - 1) + b g is computed as a left kernel and compared
    with the translates of the claimed generators, and its first
    projection with the ideal of their first components."""
    n = ring.n
    tau = ring.group.element(inertia.basis[0])
    t_minus_1 = ref_delta(ring, tau) - ref_one(ring)
    g = ref_one(ring) - ref_delta(ring, -lift) + ref_one(ring).scale(inertia.order)
    mg = ref_mult_matrix(ring, g)
    kernel = ref_left_kernel(ref_mult_matrix(ring, t_minus_1) + mg)
    rows = []
    for x, y in claimed:
        for a, b in zip(ref_mult_matrix(ring, x), ref_mult_matrix(ring, y)):
            rows.append(a + b)
    kernel_matches = ref_lattice_eq(kernel, rows)
    proj = [row[:n] for row in kernel]
    ideal = IdealLattice.from_elements(ring, [x for x, _ in claimed])
    projection_matches = ref_lattice_eq(proj, [list(r) for r in ideal.basis])
    return KernelReport(kernel_matches, projection_matches)


def test_kernel_identity_matches_left_kernel_on_cyclic_pairs():
    for n in range(2, 41):
        r = group_ring(make_group([n]))
        for pair in build_sets(r.group).stilde:
            lift = canonical_lift(pair.inertia, pair.frob)
            ref = ref_kernel_presentation(r, pair.inertia, lift, claimed_generators(r, pair.inertia, lift))
            assert verify_kernel_presentation(r, pair.inertia, pair.frob) == ref, (n, pair)


@pytest.mark.parametrize("facs", [[4], [6], [9]])
def test_kernel_identity_matches_left_kernel_on_every_lift(facs):
    r = ring_of(facs)
    for sub in enumerate_subgroups(r.group):
        if sub.is_trivial:
            continue
        for frob in r.group.elements():
            for t in sub.elements():
                lift = frob + t
                ref = ref_kernel_presentation(r, sub, lift, claimed_generators(r, sub, lift))
                assert verify_kernel_presentation(r, sub, frob, lift) == ref, (facs, sub, frob, lift)


@pytest.mark.parametrize("facs", [[4], [6], [9]])
def test_kernel_identity_refutes_perturbed_claims(facs):
    r = ring_of(facs)
    failed = 0
    for pair in build_sets(r.group).stilde:
        lift = canonical_lift(pair.inertia, pair.frob)
        for scales in ((2, 1), (1, 2)):
            claimed = claimed_generators(r, pair.inertia, lift, *scales)
            projection = IdealLattice.from_elements(r, [x for x, _ in claimed])
            g = shift_generator(r, pair.inertia.order, lift)
            claimed_terms = [(terms(x), terms(y)) for x, y in claimed]
            rep = _kernel_identity(r, pair.inertia, lift, terms(g), claimed_terms)
            assert rep == ref_kernel_presentation(r, pair.inertia, lift, claimed), (pair, scales)
            assert rep == ref_kernel_identity(r, pair.inertia, g, claimed, projection), (pair, scales)
            failed += not rep.ok
    assert failed


def projection_indices(ring, inertia, lift, norm_scale, orbit=True):
    """[Z[G] : (norm_scale N_I, g)] read in Z[G]/(g) on the term maps
    of _forward_generators, read there on dense elements by the
    reference, and (with orbit) by the HNF of the 2n-row orbit matrix."""
    xs = [ref_norm_element(ring, inertia).scale(norm_scale), shift_generator(ring, inertia.order, lift)]
    _, n_i, g = _forward_generators(ring, inertia, lift, lift)
    (ell,) = lift.coords
    a = 1 + inertia.order
    return (
        _projection_index([{j: norm_scale * c for j, c in n_i.items()}, g], a, ell, ring.n),
        ref_projection_index(xs, a, ell, ring.n),
        IdealLattice.from_elements(ring, xs).integral_index() if orbit else None,
    )


def test_projection_index_matches_the_orbit_hnf_on_cyclic_pairs():
    # every pair of criterion 6, with N_I and with 2 N_I
    cases = 0
    for n in range(2, 82):
        r = group_ring(make_group([n]))
        for pair in build_sets(r.group).stilde:
            lift = canonical_lift(pair.inertia, pair.frob)
            for norm_scale in (1, 2):
                quotient, _, orbit = projection_indices(r, pair.inertia, lift, norm_scale)
                assert quotient == orbit, (n, pair, norm_scale)
            cases += 1
    assert cases == 2114


def test_projection_index_matches_the_dense_reference_on_cyclic_pairs():
    # the term-map route, each row once, against every rotation of the
    # dense route on every pair of criterion 6, with N_I and with 2 N_I
    cases = 0
    for n in range(2, 82):
        r = group_ring(make_group([n]))
        for pair in build_sets(r.group).stilde:
            lift = canonical_lift(pair.inertia, pair.frob)
            for norm_scale in (1, 2):
                quotient, reference, _ = projection_indices(r, pair.inertia, lift, norm_scale, orbit=False)
                assert quotient == reference, (n, pair, norm_scale)
            cases += 1
    assert cases == 2114


@pytest.mark.parametrize("facs", [[4], [6], [9], [12], [16]])
def test_projection_index_matches_the_orbit_hnf_on_every_lift(facs):
    r = ring_of(facs)
    for sub in enumerate_subgroups(r.group):
        if sub.is_trivial:
            continue
        for frob in r.group.elements():
            for t in sub.elements():
                for norm_scale in (1, 2):
                    quotient, reference, orbit = projection_indices(r, sub, frob + t, norm_scale)
                    assert quotient == reference == orbit, (facs, sub, frob, t, norm_scale)


def test_kernel_identity_refuses_claims_without_g():
    # the index is read in Z[G]/(g), which is exact only when g is in (xs)
    r = ring_of([9])
    i3 = Subgroup.from_generators(r.group, [r.group.element((3,))])
    lift = r.group.element((1,))
    _, n_i, g = _forward_generators(r, i3, lift, lift)
    for claimed in (
        [(n_i, {})],
        [(n_i, {}), ({j: 2 * c for j, c in g.items()}, {})],
        [(n_i, {}), ({}, g)],
    ):
        with pytest.raises(ContainmentError):
            _kernel_identity(r, i3, lift, g, claimed)


@pytest.mark.parametrize("command", ["verify 36 --checks kernel", "verify 81 --checks kernel"])
def test_kernel_sweep_builds_no_group_ring_element(command):
    # the kernel path works on term maps: a GroupRingElem built anywhere
    # in the sweep raises, and the report keeps its recorded digest
    def refuse(self, *args):
        raise AssertionError("a GroupRingElem was built on the kernel path")

    with mock.patch.object(GroupRingElem, "__init__", refuse):
        assert report_digest(command) == EXPECTED[command]["sha256"]


def test_principal_index_matches_the_hnf_index_and_the_resultant():
    """(a^{m/e} - 1)^e, e = gcd(l, m), is [Z[C_m] : (a - sigma^{-l})]
    by the HNF of its orbit, and |Res(x^m - 1, a - x^{(m - l) mod m})|
    by sympy, for every m <= 40 and l < m."""
    x = sympy.Symbol("x")
    cases = 0
    for m in range(1, 41):
        r = GroupRing(make_group([m]))
        for ell in range(m):
            sigma_minus_ell = ref_delta(r, r.group.element((-ell,)) if m > 1 else r.group.zero())
            for a in (2, 3, 4, 5, 9):
                index = _principal_index(a, ell, m)
                hnf_index = IdealLattice.from_elements(r, [ref_one(r).scale(a) - sigma_minus_ell]).integral_index()
                resultant = abs(sympy.resultant(x**m - 1, a - x ** ((m - ell) % m), x))
                assert index == hnf_index == resultant, (a, ell, m)
                cases += 1
    assert cases == 4100


@pytest.mark.parametrize("facs", [[8], [9], [12], [16]])
def test_tau_minus_one_index_is_quotient_principal_index(facs):
    """[Z[G] : (tau - 1, g)] = [Z[G/I] : (gbar)], since Z[G]/(tau - 1) is Z[G/I]."""
    r = ring_of(facs)
    for pair in build_sets(r.group).stilde:
        inertia = pair.inertia
        lift = canonical_lift(inertia, pair.frob)
        t_minus_1 = ref_delta(r, r.group.element(inertia.basis[0])) - ref_one(r)
        g = shift_generator(r, inertia.order, lift)
        qd = quotient_data(r.group, inertia)
        q = GroupRing(qd.group)
        gbar = shift_generator(q, inertia.order, qd.proj(lift))
        assert (
            IdealLattice.from_elements(r, [t_minus_1, g]).integral_index()
            == IdealLattice.from_elements(q, [gbar]).integral_index()
        ), (facs, pair)


def test_extension_sequence_examples():
    cases = [([9], [(3,)]), ([9], [(1,)]), ([3, 3], [(1, 0)]), ([15], [(3,)])]
    for facs, gens in cases:
        r = ring_of(facs)
        sub = Subgroup.from_generators(r.group, [r.group.element(c) for c in gens])
        rep = verify_extension_sequence(r, sub)
        assert rep.ok, (facs, gens)
        assert rep.image_matches and rep.embedding_primitive


@pytest.mark.parametrize("facs", PERTURBED_GROUPS)
def test_extension_check_matches_the_left_kernel_route_on_perturbations(facs, monkeypatch):
    # both flags, on lattices that pass, fail one fact or fail both, and
    # on the span of N_I and #I Z^n: no ideal unless I = G, it holds one
    # coset indicator of [G:I]
    seen = set()
    for ring, inertia, lat in perturbation_set(facs):
        one_coset = IdealLattice(
            ring, [list(ref_norm_element(ring, inertia).coeffs)] + im.diagonal([inertia.order] * ring.n)
        )
        for lat in (lat, one_coset):
            got = ext_on(ring, inertia, lat, monkeypatch)
            assert got == ref_verify_extension_sequence(ring, inertia, lat), (facs, inertia, lat.basis)
            seen.add(got)
    assert ExtensionReport(True, True) in seen and len(seen) > 1


def test_extension_check_matches_the_left_kernel_route_on_the_catalogue():
    # the cyclic groups of criterion 6's kernel sweep, and 2,2,2,2; the
    # backward lattice is also compared with its 2n-row orbit HNF
    for facs in [[n] for n in range(2, 82)] + [[2, 2, 2, 2]]:
        ring = group_ring(make_group(facs))
        for inertia in {pair.inertia for pair in build_sets(ring.group).stilde}:
            ref_lat = ref_backward_ideal(ring, inertia)
            assert backward_rep(ring, inertia).basis == ref_lat.basis, (facs, inertia)
            got = verify_extension_sequence(ring, inertia)
            assert got == ref_verify_extension_sequence(ring, inertia, ref_lat), (facs, inertia)
            assert got == ExtensionReport(True, True), (facs, inertia)


@pytest.mark.parametrize("spec", ["64", "2,2,8"])
def test_ext_sweep_builds_no_multiplication_matrix_kernel_smith_form_or_element(spec):
    # inside the ext rows only: build_sets takes Smith forms of its own
    rows, inside, calls = [], [], []
    real_ext = cli.verify_extension_sequence

    def ext(ring, inertia):
        rows.append(inertia)
        inside.append(True)
        try:
            return real_ext(ring, inertia)
        finally:
            inside.pop()

    def spy(name, real):
        def wrapped(*args, **kwargs):
            if inside:
                calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    # the multiplication matrix and the left kernel exist only in
    # tests/reference.py
    spies = [
        (im, "snf_with_transform"),
        (GroupRingElem, "__init__"),
    ]
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "verify_extension_sequence", ext))
        for owner, name in spies:
            stack.enter_context(mock.patch.object(owner, name, spy(name, getattr(owner, name))))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        assert cli.main(["verify", spec, "--checks", "ext"]) == cli.EXIT_OK
    assert rows and not calls


def test_kernel_rows_take_no_smith_form():
    # inside the kernel rows only: the index sets take Smith forms of their
    # own; a noncyclic inertia group lies in a noncyclic G, which the
    # forward generators refuse, so no row tests I for cyclicity
    rows, inside, calls = [], [], []
    real_kernel = cli.verify_kernel_presentation

    def kernel(ring, inertia, frob):
        rows.append(inertia)
        inside.append(True)
        try:
            return real_kernel(ring, inertia, frob)
        finally:
            inside.pop()

    real_snf = im.snf_with_transform

    def snf(*args, **kwargs):
        if inside:
            calls.append(args)
        return real_snf(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "verify_kernel_presentation", kernel))
        stack.enter_context(mock.patch.object(im, "snf_with_transform", snf))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        assert cli.main(["verify", "64", "--checks", "kernel"]) == cli.EXIT_OK
    assert len(rows) == 63 and not calls


def _fraction_solve_left(rows, target):
    """Reference: the unique rational x with x @ rows = target, for rows
    of full row rank, by Gaussian elimination over Fraction; None when
    the system is inconsistent or the rows are dependent."""
    k = len(rows)
    width = len(target)
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])]
           for j in range(width)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, width) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(width):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if r < k or any(aug[i][k] for i in range(r, width)):
        return None
    x = [Fraction(0)] * k
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][k]
    return x


def _fraction_preimage_is_standard(fnum, w_rows):
    """The preimage step of the extension check as a Fraction solve:
    solve each row, clear the common denominator D and compare with
    D times the standard lattice."""
    pre = [_fraction_solve_left(fnum, w) for w in w_rows]
    if any(a is None for a in pre):
        return False, None
    den = lcm(*(v.denominator for row in pre for v in row))
    int_rows = [[int(v * den) for v in row] for row in pre]
    nbar = len(fnum)
    std = [[den if i == j else 0 for j in range(nbar)] for i in range(nbar)]
    return ref_lattice_eq(int_rows, std), pre


@pytest.mark.parametrize("facs", [[9], [27], [3, 3], [15], [2, 4]])
def test_extension_preimage_matches_fraction_solve(facs, monkeypatch):
    """The integral coordinates solve of the reference preimage fact
    agrees with the rational solve on every coset-indicator system it
    meets on the backward lattices, one per inertia group."""
    systems = []

    def recorder(big, small):
        try:
            out = ref_lattice_quotient_coords(big, small)
        except ContainmentError:
            systems.append((big, small, None))
            raise
        systems.append((big, small, out))
        return out

    monkeypatch.setattr(reference, "ref_lattice_quotient_coords", recorder)
    r = ring_of(facs)
    inertias = {pair.inertia for pair in build_sets(r.group).stilde}
    verdicts = [ref_preimage_is_standard(r, i, backward_rep(r, i)) for i in inertias]
    assert len(systems) == len(inertias)
    for (fnum, w_rows, coords), verdict in zip(systems, verdicts):
        # the rows are 0/1 indicators of disjoint sets covering G
        assert all(v in (0, 1) for row in fnum for v in row)
        assert [sum(col) for col in zip(*fnum)] == [1] * r.n
        ref_standard, ref = _fraction_preimage_is_standard(fnum, w_rows)
        assert (coords is None) == (ref is None)
        if coords is not None:
            assert coords == ref
        assert verdict == ref_standard


def test_unit_transport_positive():
    # same inertia, same decomposition group, genuinely different cosets
    r9 = ring_of([9])
    i3 = Subgroup.from_generators(r9.group, [r9.group.element((3,))])
    assert verify_unit_transport(r9.group, i3, r9.group.element((1,)), r9.group.element((2,)))
    r33 = ring_of([3, 3])
    i = Subgroup.from_generators(r33.group, [r33.group.element((1, 0))])
    assert verify_unit_transport(
        r33.group, i, r33.group.element((0, 1)), r33.group.element((0, 2))
    )
    r8 = ring_of([8])
    i2 = Subgroup.from_generators(r8.group, [r8.group.element((4,))])
    assert verify_unit_transport(r8.group, i2, r8.group.element((1,)), r8.group.element((3,)))


def test_unit_transport_guards():
    r9 = ring_of([9])
    i3 = Subgroup.from_generators(r9.group, [r9.group.element((3,))])
    # different decomposition subgroups: the walk of phi_a = 1 over Z/9
    # mod <3> meets lift(-3) = 0 only at k = 3
    with pytest.raises(UnitNotFoundError):
        verify_unit_transport(r9.group, i3, r9.group.element((1,)), r9.group.element((3,)))
    # not a p-group
    r6 = ring_of([6])
    i2 = Subgroup.from_generators(r6.group, [r6.group.element((3,))])
    with pytest.raises(ScopeError):
        verify_unit_transport(r6.group, i2, r6.group.element((1,)), r6.group.element((5,)))


def unit_outcome(check, group, inertia, frob_a, frob_b):
    try:
        return check(group, inertia, frob_a, frob_b)
    except UnitNotFoundError:
        return "no unit"


@pytest.mark.parametrize("facs", [[9], [27], [3, 3], [15], [3, 9], [8], [2, 4], [2, 16]])
def test_backward_rep_is_the_rational_lattice_scaled_by_the_inertia_order(facs):
    # the per-pair rational lattice, for every phi, is the one lattice of I
    r = group_ring(make_group(facs))
    for inertia in {pair.inertia for pair in build_sets(r.group).stilde}:
        lat = backward_rep(r, inertia)
        for frob in r.group.elements():
            ref = ref_backward_rep(r, inertia, frob)
            assert ref.den == inertia.order, (inertia, frob)
            assert lat.basis == ref.basis, (inertia, frob)
    with pytest.raises(ScopeError):
        backward_rep(r, Subgroup.trivial(r.group))


def test_unit_transport_repairs_the_augmentation_on_frobenius_in_inertia():
    # frob_a, frob_b in I: both coset differences vanish; the rational
    # route's first solution is u = 0, and a kernel row must make its
    # augmentation a unit, while the witness is u = 1 (k = 1)
    r9 = ring_of([9])
    i3 = Subgroup.from_generators(r9.group, [r9.group.element((3,))])
    args = (r9.group, i3, r9.group.element((0,)), r9.group.element((3,)))
    assert verify_unit_transport(*args) is True
    assert ref_verify_unit_transport(*args) is True


@pytest.mark.parametrize("facs", [[8], [9], [2, 4], [3, 3]])
def test_unit_transport_matches_the_rational_route_on_frobenius_in_inertia(facs):
    r = group_ring(make_group(facs))
    for inertia in {pair.inertia for pair in build_sets(r.group).stilde}:
        elems = list(inertia.elements())
        for a in elems:
            for b in elems:
                args = (r.group, inertia, a, b)
                assert unit_outcome(verify_unit_transport, *args) == unit_outcome(
                    ref_verify_unit_transport, *args
                ), (facs, inertia, a, b)


# each group with its number of equal-projection pairs; 2,2,2 has none
@pytest.mark.parametrize(
    "facs, pairs",
    [([8], 1), ([9], 1), ([27], 17), ([2, 4], 2), ([3, 3], 4), ([2, 2, 2], 0), ([3, 9], 56)],
)
def test_unit_transport_matches_the_rational_route(facs, pairs):
    r = group_ring(make_group(facs))
    compared = 0
    for a, b in unit_pairs(r.group):
        args = (r.group, a.inertia, a.frob, b.frob)
        assert unit_outcome(verify_unit_transport, *args) == unit_outcome(
            ref_verify_unit_transport, *args
        ), (facs, a, b)
        compared += 1
    assert compared == pairs


@pytest.mark.parametrize("facs", [[9], [27], [3, 3], [15], [3, 9]])
def test_backward_rep_is_the_ideal_of_the_inertia_norm_and_order(facs):
    # L = (nu, 1 - nu phi^-1) contains nu phi^-1, a translate of nu, so
    # it contains 1 and the per-pair ideal #I L = (N_I, #I - N_I phi^-1)
    # is (N_I, #I) whatever phi is
    r = group_ring(make_group(facs))
    for pair in build_sets(r.group).stilde:
        n_i = ref_norm_element(r, pair.inertia)
        per_pair = IdealLattice.from_elements(
            r, [n_i, ref_one(r).scale(pair.inertia.order) - n_i * ref_delta(r, -pair.frob)]
        )
        assert backward_rep(r, pair.inertia).basis == per_pair.basis, pair


@pytest.mark.parametrize("facs", [[8], [9], [27], [2, 4], [3, 3]])
def test_unit_comparison_also_accepts_an_unrelated_multiplier(facs):
    # A characterisation: the backward lattice is a ring, so the p-adic
    # comparison of L w with L holds for any multiplier
    # W = #I + N_I (u~ - 1) whose u~ has augmentation prime to p, not
    # only for the witness; here u~ = 1 + 3 (phi - 1).  The equal-(I, D)
    # claim therefore rests on the witness alone.
    r = group_ring(make_group(facs))
    compared = 0
    for a, b in unit_pairs(r.group):
        assert verify_unit_transport(r.group, a.inertia, a.frob, b.frob)
        utilde = ref_one(r) + (ref_delta(r, a.frob) - ref_one(r)).scale(3)
        assert ref_unit_comparison(r, a.inertia, utilde), (facs, a, b)
        compared += 1
    assert compared > 0


def test_unit_comparison_passes_wherever_the_witness_does():
    # over criterion 6's catalogue, the comparison that no longer decides
    # a unit row passes on every witness
    compared = 0
    for facs in P_GROUPS_27:
        r = group_ring(make_group(facs))
        for a, b in unit_pairs(r.group):
            assert verify_unit_transport(r.group, a.inertia, a.frob, b.frob), (facs, a, b)
            utilde = ref_unit_witness(r, a.inertia, a.frob, b.frob)
            assert ref_unit_comparison(r, a.inertia, utilde), (facs, a, b)
            compared += 1
    assert compared == 242


@pytest.mark.parametrize("facs, pairs", [([27], 17), ([3, 9], 56)])
def test_unit_transport_builds_no_lattice(facs, pairs):
    # a unit row is decided by the witness identity alone
    r = group_ring(make_group(facs))
    compared = 0
    with mock.patch.object(
        IdealLattice, "__init__", autospec=True, side_effect=IdealLattice.__init__
    ) as lattice_spy:
        for a, b in unit_pairs(r.group):
            assert verify_unit_transport(r.group, a.inertia, a.frob, b.frob), (facs, a, b)
            compared += 1
    assert compared == pairs
    assert not lattice_spy.called


def test_unit_transport_in_the_quotient_matches_the_norm_copy():
    # the identity checked on the walk over the canonical lifts mod I
    # against the two routes it replaced, over criterion 6's catalogue:
    # one dense product in Z[G/I] in Smith coordinates, and the same
    # identity on N_I Z[G]
    compared = 0
    for facs in P_GROUPS_27:
        g = make_group(facs)
        for a, b in unit_pairs(g):
            args = (g, a.inertia, a.frob, b.frob)
            got = unit_route_outcome(verify_unit_transport, *args)
            assert got == unit_route_outcome(ref_unit_transport_in_quotient, *args), (facs, a, b)
            assert got == unit_route_outcome(ref_verify_unit_on_norm_copy, *args), (facs, a, b)
            compared += 1
    assert compared == 242


@pytest.mark.parametrize("facs", [*P_GROUPS_27, [6], [12]])
def test_unit_transport_matches_the_norm_copy_on_frobenius_in_inertia(facs):
    # both Frobenius elements in I: k = 1 and u = 1; off p-groups every
    # route raises ScopeError
    g = make_group(facs)
    outcomes = set()
    for inertia in {pair.inertia for pair in build_sets(g).stilde}:
        elems = inertia.elements()
        for a in elems:
            for b in elems:
                args = (g, inertia, a, b)
                got = unit_route_outcome(verify_unit_transport, *args)
                assert got == unit_route_outcome(ref_unit_transport_in_quotient, *args), (facs, a, b)
                assert got == unit_route_outcome(ref_verify_unit_on_norm_copy, *args), (facs, a, b)
                outcomes.add(got)
    assert outcomes == ({True} if len(prime_factors(g.order)) == 1 else {"ScopeError"})


def test_unit_transport_rejects_inputs_from_another_group():
    g, h = make_group([9]), make_group([3, 3])
    i3 = Subgroup.from_generators(g, [g.element((3,))])
    with pytest.raises(ParentMismatchError):
        verify_unit_transport(g, i3, g.element((1,)), h.element((1, 0)))


def test_lattices_imports_no_quotient_or_ring_builder():
    for name in ("quotient_data", "decomposition_subgroup", "group_ring"):
        assert not hasattr(lattices, name), name


@pytest.mark.parametrize("spec", ["27", "3,9"])
def test_unit_sweep_takes_no_smith_form_and_no_ring_arithmetic(spec):
    # every function called inside the unit sweep, seen by a profile hook
    # so that no alias escapes: no Smith form, no quotient group, no
    # decomposition subgroup, and no group ring or ring element
    banned = {
        im.snf_with_transform.__code__: "snf_with_transform",
        im.smith_coordinates.__code__: "smith_coordinates",
        quotient_data.__code__: "quotient_data",
        decomposition_subgroup.__code__: "decomposition_subgroup",
        GroupRing.__init__.__code__: "GroupRing.__init__",
    }
    for attr, obj in vars(GroupRingElem).items():
        if isinstance(obj, property):
            obj = obj.fget
        if inspect.isfunction(obj):
            banned[obj.__code__] = f"GroupRingElem.{attr}"
    seen, rows = set(), []
    real_rows, real_unit = cli._unit_rows, cli.verify_unit_transport

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in banned:
            seen.add(banned[frame.f_code])

    def unit_rows(inputs):
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            return real_rows(inputs)
        finally:
            sys.setprofile(previous)

    def unit(*args):
        rows.append(args)
        return real_unit(*args)

    with mock.patch.object(cli, "_unit_rows", unit_rows), mock.patch.object(
        cli, "verify_unit_transport", unit
    ), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", spec, "--checks", "unit"]) == cli.EXIT_OK
    assert rows and not seen, sorted(seen)
