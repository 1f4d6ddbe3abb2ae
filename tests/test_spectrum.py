"""Valuation spectrum sampling: anchors, determinism, claim checks.

The frozen anchors were computed by hand from resultants of small
cyclotomic polynomials.  The builder does not check the oracle identity
(character total equals the Smith-form total): it records both totals,
and the spectrum command's oracle_identity check compares them.  Here
the property test compares them on random elements, and the p-local
Smith total is checked against the global HNF index it replaced and
against the list elimination the packed rows replaced, and a sample's
x and Smith rows against the GroupRing products and multiplication
matrix that built them before they became coefficient lists.  The
character valuations, read off the expansion in zeta - 1, are checked
against v_p of the multiplication-matrix resultant they replaced and of
sympy's resultant.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, resultant
from sympy.abc import x as X

import grlat.intmat as im
from grlat import spectrum
from grlat.abelian import is_prime, make_group, p_split
from grlat.errors import CapacityError, DegenerateElementError, ScopeError
from grlat.grouprings import IdealLattice, group_ring
from grlat.polys import cyclotomic
from grlat.spectrum import (
    SPECTRUM_COST_CAP,
    _level_valuation,
    build_sample,
    char_valuation,
    predicted_membership,
    run_cost,
    sample_spectrum,
    verify_claims,
)
from reference import (
    poly_mul,
    ref_delta,
    ref_mult_matrix,
    ref_one,
    ref_resultant_monic,
    ref_smith_valuations_mod,
)


def test_anchor_zero_u():
    # x = 9*eps: c = (ord Res(Phi_3, 9), ord Res(Phi_9, 9)) = (4, 12)
    s = build_sample(3, 2, [0] * 9)
    assert s.c_values == (4, 12)
    assert s.total == 16
    assert s.a_values == (None, None)
    assert verify_claims(s).ok


def test_anchor_unit_u():
    s = build_sample(3, 2, [1] + [0] * 8)
    assert s.total == 2
    assert s.c_values == (1, 1)
    assert s.a_values == (0, 0)
    rep = verify_claims(s)
    assert rep.ok and rep.dichotomy_ok


def test_anchor_sigma_minus_one():
    u = [-1, 1] + [0] * 7
    s = build_sample(3, 2, u)
    assert s.c_values == (2, 2) and s.total == 4
    assert s.a_values == (1, 1)
    assert verify_claims(s).ok


def test_anchor_sigma_minus_one_squared():
    u = [1, -2, 1] + [0] * 6
    s = build_sample(3, 2, u)
    assert s.c_values == (3, 3) and s.total == 6
    assert s.a_values == (2, 2)
    assert verify_claims(s).ok


def test_char_valuation_direct():
    x = [8, 1, 0, 0, 0, 0, 0, 0, 0]
    assert char_valuation(x, 1) == 1
    assert char_valuation(x, 2) == 1
    with pytest.raises(ScopeError):
        char_valuation(x, 3)
    with pytest.raises(DegenerateElementError):
        char_valuation([1] * 9, 1)


def test_membership_table():
    assert not predicted_membership(5, 3, 2)
    assert predicted_membership(6, 3, 2)
    assert predicted_membership(4, 3, 2, n=2)
    assert predicted_membership(9, 3, 2, n=2)
    assert not predicted_membership(7, 3, 2, n=2)
    assert not predicted_membership(0, 3, 2)
    assert predicted_membership(7, 3, 2)  # beyond the top is allowed
    with pytest.raises(ScopeError):
        predicted_membership(4, 3, 2, n=0)


def test_scope_guards():
    with pytest.raises(ScopeError):
        build_sample(4, 2, [0] * 16)
    with pytest.raises(ScopeError):
        build_sample(2, 2, [0] * 4)
    with pytest.raises(ScopeError):
        build_sample(3, 0, [0])
    with pytest.raises(ScopeError):
        build_sample(3, 2, [0] * 9, epsilon=3)
    with pytest.raises(ScopeError):
        build_sample(3, 2, [0] * 4)  # wrong coefficient count
    with pytest.raises(ScopeError):
        sample_spectrum(3, 2, coeff_exp=0, count=1)


def test_sampling_deterministic_and_prefix_stable():
    a = sample_spectrum(3, 2, count=20, seed=5)
    b = sample_spectrum(3, 2, count=20, seed=5)
    assert a == b
    short = sample_spectrum(3, 2, count=8, seed=5)
    assert short == a[:8]
    other = sample_spectrum(3, 2, count=8, seed=6)
    assert other != short


def test_samples_record_rejections():
    samples = sample_spectrum(3, 1, count=50, seed=3)
    assert all(s.attempts >= 1 for s in samples)
    assert all(predicted_membership(s.snf_total, 3, 1) for s in samples)


def test_claims_hold_across_configs():
    for p, r, count in ((3, 1, 40), (3, 2, 40), (5, 1, 25), (5, 2, 10), (7, 1, 10)):
        for s in sample_spectrum(p, r, count=count, seed=11):
            rep = verify_claims(s)
            assert rep.ok, (p, r, s)
            assert rep.augmentation_ok


def test_low_case_triggers_exact_total():
    # u = 1 has a_1 = 0 < p-1, so the dichotomy forces total = r(1+a_1)
    s = build_sample(3, 2, [1] + [0] * 8)
    assert s.total == 2 * (1 + s.a_values[0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=9, max_size=9))
def test_membership_and_claims_property(ucoeffs):
    try:
        s = build_sample(3, 2, ucoeffs)
    except DegenerateElementError:
        return
    assert predicted_membership(s.snf_total, 3, 2)
    assert verify_claims(s).ok
    assert sum(s.c_values) == s.snf_total


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2)]),
    st.integers(min_value=1, max_value=3),
)
def test_membership_predicate_shape(v, pr, n):
    p, r = pr
    top = r * (n + p - 1)
    member = predicted_membership(v, p, r, n)
    if v > top:
        assert member
    elif member:
        assert v % r == 0 and r * n <= v <= top
    else:
        assert v % r != 0 or v < r * n


@pytest.mark.parametrize("p, r", [(3, 2), (3, 3), (5, 2)])
def test_snf_total_matches_the_global_hnf_index(p, r):
    # the global route the p-local Smith valuations replaced
    ring = group_ring(make_group([p**r]))
    for s in sample_spectrum(p, r, count=200, seed=7):
        x = ring.from_coeffs(list(s.x))
        index = IdealLattice.from_elements(ring, [ring.from_coeffs([1] * ring.n), x]).integral_index()
        assert s.snf_total == p_split(index, p)[0], s


@pytest.mark.parametrize("p, r, count", [(3, 4, 3), (7, 2, 3), (79, 1, 1)])
def test_snf_total_matches_the_reference_elimination(p, r, count, monkeypatch):
    packed = [s.snf_total for s in sample_spectrum(p, r, count=count, seed=5)]
    monkeypatch.setattr(im, "_smith_valuations_mod", ref_smith_valuations_mod)
    assert [s.snf_total for s in sample_spectrum(p, r, count=count, seed=5)] == packed


# (p, r, coeff_exp, samples): the largest spectrum runs of README and
# criterion 7 (1000 samples), criterion 9 (120), the global HNF and the
# reference elimination tests, and the orders just past the old order
# cap of 81 at the default 100 samples
DOCUMENTED_RUNS = [
    (3, 2, 5, 1000),
    (3, 3, 5, 1000),
    (5, 2, 5, 1000),
    (5, 2, 5, 120),
    (3, 3, 5, 200),
    (3, 4, 5, 3),
    (7, 2, 5, 3),
    (79, 1, 5, 1),
    (83, 1, 5, 100),
    (5, 3, 5, 100),
    (3, 5, 5, 100),
    (11, 2, 5, 100),
]

# the extreme accepted corners: the largest prime p at one sample, and
# the largest sample count or coefficient exponent of (3,1) and (3,5);
# each is accepted and one step past it is refused
CORNERS = [
    ((199, 1, 5, 1), (211, 1, 5, 1)),
    ((3, 1, 5, 252_212), (3, 1, 5, 252_212 + 1)),
    ((3, 1, 33_050_309, 1), (3, 1, 33_050_309 + 1, 1)),
    ((3, 5, 5, 203), (3, 5, 5, 203 + 1)),
]


@pytest.mark.parametrize("run", DOCUMENTED_RUNS)
def test_documented_runs_are_within_the_cost_cap(run):
    assert run_cost(*run) <= SPECTRUM_COST_CAP


@pytest.mark.parametrize("corner, past", CORNERS)
def test_each_corner_is_the_last_accepted_step(corner, past):
    assert run_cost(*corner) <= SPECTRUM_COST_CAP < run_cost(*past)


@pytest.mark.parametrize("corner, past", CORNERS)
def test_one_step_past_a_corner_is_refused_before_drawing(corner, past, monkeypatch):
    monkeypatch.setattr("grlat.spectrum.build_sample", pytest.fail)
    with pytest.raises(CapacityError, match="exceeds spectrum cost cap"):
        sample_spectrum(*past)


def test_a_run_that_would_hold_too_much_is_refused(monkeypatch):
    # 300 samples of (3,1) at coeff_exp 10^6 peaked at 200 MiB in about
    # 8 s: memory, not time, passes the cap
    monkeypatch.setattr("grlat.spectrum.build_sample", pytest.fail)
    with pytest.raises(CapacityError, match="exceeds spectrum cost cap"):
        sample_spectrum(3, 1, 10**6, 300)


def test_the_cost_grows_along_every_axis():
    # a step of one in coeff_exp moves the estimate by less than its unit
    base = run_cost(5, 2, 5, 100)
    assert run_cost(7, 2, 5, 100) > base
    assert run_cost(5, 3, 5, 100) > base
    assert run_cost(5, 2, 50, 100) > base
    assert run_cost(5, 2, 5, 101) > base


def test_an_oversized_ring_is_refused_before_primality_and_the_estimate(monkeypatch):
    monkeypatch.setattr("grlat.spectrum.is_prime", pytest.fail)
    monkeypatch.setattr("grlat.spectrum.run_cost", pytest.fail)
    for p, r in ((3, 10**9), (3, 8), (4099, 1), (10**18 + 3, 1), (9, 4)):
        with pytest.raises(CapacityError, match="exceeds ring cap"):
            sample_spectrum(p, r, count=1)
    with pytest.raises(CapacityError, match="exceeds ring cap"):
        build_sample(3, 10**9, ())


# every accepted ring order p^r up to 125
SMALL_ORDERS = [(p, r) for p in range(3, 126, 2) if is_prime(p) for r in range(1, 5) if p**r <= 125]


@pytest.mark.parametrize("p, r", SMALL_ORDERS)
def test_sample_and_smith_rows_match_the_group_ring(p, r, monkeypatch):
    # the group-ring route build_sample replaced: x = (sigma - 1) u +
    # p^r eps by ring products, and the Smith rows N and the n rows of
    # x's multiplication matrix, in that order
    seen = []
    monkeypatch.setattr(spectrum, "smith_valuations", lambda rows, *_: seen.append(rows) or [])
    ring = group_ring(make_group([p**r]))
    sigma = ref_delta(ring, ring.group.element((1,)))
    rng = Random(f"{p}:{r}")
    bound = p**3
    built = 0
    for _ in range(4):
        ucoeffs = [rng.randrange(-bound, bound) for _ in range(ring.n)]
        epsilon = rng.choice([e for e in range(-2 * p, 2 * p) if e % p])
        try:
            s = build_sample(p, r, ucoeffs, epsilon)
        except DegenerateElementError:
            continue
        x = (sigma - ref_one(ring)) * ring.from_coeffs(ucoeffs) + ref_one(ring).scale(p**r * epsilon)
        assert s.x == x.coeffs
        assert seen.pop() == [list(ring.from_coeffs([1] * ring.n).coeffs), *ref_mult_matrix(ring, x)]
        built += 1
    assert built


def resultant_valuation(res, p):
    return None if res == 0 else p_split(res, p)[0]


# (p, i, r): the level-i character of Z[Z/p^r] for every accepted p^r
# of the ring orders up to 3^4 and 5^2, and p = 7, 11, 79 at level 1
LEVELS = [(3, i, r) for r in range(1, 5) for i in range(1, r + 1)]
LEVELS += [(5, 1, 1), (5, 1, 2), (5, 2, 2), (7, 1, 1), (7, 1, 2), (11, 1, 1), (79, 1, 1)]


@st.composite
def level_inputs(draw, levels=LEVELS, coeff_exp=6):
    """(f, p, i): f unreduced of length up to p^r, scaled by a power of
    p, or a multiple of Phi_{p^i} (so the character kills it), or zero."""
    p, i, r = draw(st.sampled_from(levels))
    bound = p**coeff_exp
    length = draw(st.integers(0, p**r))
    f = draw(st.lists(st.integers(-bound, bound), min_size=length, max_size=length))
    kind = draw(st.sampled_from(["plain", "scaled", "killed", "zero"]))
    if kind == "scaled":
        f = [c * p ** draw(st.integers(1, 4)) for c in f]
    elif kind == "killed":
        f = list(poly_mul(cyclotomic(p**i), f[: p**r - p**i + p ** (i - 1)] or [1]))
    elif kind == "zero":
        f = [0] * len(f)
    return f, p, i


@given(level_inputs())
@settings(max_examples=150, deadline=None)
def test_level_valuation_matches_the_reference_resultant(case):
    f, p, i = case
    res = ref_resultant_monic(cyclotomic(p**i), f)
    assert _level_valuation(f, p, i) == resultant_valuation(res, p)


SMALL_LEVELS = [(3, 1, 2), (3, 2, 2), (3, 2, 3), (5, 1, 2), (5, 2, 2), (7, 1, 1), (11, 1, 1)]


@given(level_inputs(SMALL_LEVELS, 3))
@settings(max_examples=40, deadline=None)
def test_level_valuation_matches_sympys_resultant(case):
    f, p, i = case
    phi = Poly(list(reversed(cyclotomic(p**i))), X)
    res = int(resultant(phi, Poly(list(reversed(f)), X))) if any(f) else 0
    assert _level_valuation(f, p, i) == resultant_valuation(res, p)


def test_level_valuation_anchors():
    # Res(Phi_9, 9) = 9^6; Phi_27(1) = 3; the norm of zeta - 1 is p
    assert _level_valuation([9], 3, 2) == 12
    assert _level_valuation([-1, 1], 3, 3) == 1
    assert _level_valuation([-1, 1], 79, 1) == 1
    # X^9 = 1 on every character of Z/9, so X^9 - 1 folds to zero
    assert _level_valuation([-1] + [0] * 8 + [1], 3, 2) is None
    assert _level_valuation(cyclotomic(25), 5, 2) is None
    assert _level_valuation([], 5, 1) is None
