"""Valuation spectrum sampling: anchors, determinism, claim checks.

The frozen anchors were computed by hand from resultants of small
cyclotomic polynomials.  The builder does not check the oracle identity
(resultant total equals the Smith-form total): it records both totals,
and the spectrum command's oracle_identity check compares them.  Here
the property test compares them on random elements, and the p-local
Smith total is checked against the global HNF index it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grlat.abelian import p_split
from grlat.errors import CapacityError, DegenerateElementError, ScopeError
from grlat.grouprings import RING_ORDER_CAP, IdealLattice
from grlat.spectrum import (
    COEFF_EXP_CAP,
    SPECTRUM_ORDER_CAP,
    _check_scope,
    build_sample,
    char_valuation,
    cyclic_ring,
    predicted_membership,
    sample_spectrum,
    verify_claims,
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
    ring = cyclic_ring(3, 2)
    x = ring.delta(ring.group.element((1,))) - ring.one() + ring.one().scale(9)
    assert char_valuation(x, 1) == 1
    assert char_valuation(x, 2) == 1
    with pytest.raises(ScopeError):
        char_valuation(x, 3)
    with pytest.raises(DegenerateElementError):
        char_valuation(ring.full_norm(), 1)


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
    assert all(s.membership for s in samples)


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
    assert s.membership
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
    ring = cyclic_ring(p, r)
    for s in sample_spectrum(p, r, count=200, seed=7):
        x = ring.from_coeffs(list(s.x))
        index = IdealLattice.from_elements(ring, [ring.full_norm(), x]).integral_index()
        assert s.snf_total == p_split(index, p)[0], s


def test_order_cap_keeps_every_documented_order():
    assert SPECTRUM_ORDER_CAP <= RING_ORDER_CAP
    for p, r in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (3, 4), (79, 1)):
        _check_scope(p, r)
    for p, r in ((83, 1), (5, 3), (3, 5), (7, 3)):
        with pytest.raises(CapacityError):
            _check_scope(p, r)


def test_coeff_exp_cap_keeps_the_default_and_refuses_before_drawing(monkeypatch):
    assert COEFF_EXP_CAP >= 5
    assert len(sample_spectrum(3, 2, coeff_exp=COEFF_EXP_CAP, count=1)) == 1
    monkeypatch.setattr("grlat.spectrum.build_sample", pytest.fail)
    for e in (COEFF_EXP_CAP + 1, 2000):
        with pytest.raises(CapacityError):
            sample_spectrum(79, 1, coeff_exp=e, count=1)
