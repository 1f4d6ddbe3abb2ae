"""Negative controls: a certificate that no input can make fail shows
nothing, so each check here is fed a minimally wrong input and must
fail.

The extension check is run on backward lattices that are sublattices
of the true one, (N_I, #I), of index a nontrivial power of p, with p the
least prime dividing #I:

- (N_I, p #I) changes the image of the lattice under the projection
  killing nu Q[G], so `image_matches` fails and nothing else;
- (p N_I, #I) keeps that image, but its nu-part is p times too small,
  so the preimage and embedding facts fail and `image_matches` holds.

The triviality check is run with its prediction negated, and with the
lex-least factor of a split Phi_m mod p replaced by X^d + 1 (for Phi_7
mod 2, X^3 + 1 divides neither factor); the idempotent its traces give
is not idempotent mod p, and the lift refuses it.
"""

import contextlib
import io

import pytest

from grlat import cohomology, lattices, polys
from grlat.abelian import make_group, prime_factors
from grlat.cli import EXIT_CHECK, main
from grlat.errors import IdentityCheckError
from grlat.grouprings import IdealLattice, group_ring
from grlat.lattices import ExtensionReport
from grlat.monoid import build_sets

GROUPS = ([9], [27], [3, 3], [2, 4], [15])


def index_too_large_order(ring, inertia, p):
    return [ring.norm_element(inertia), ring.one().scale(p * inertia.order)]


def index_too_small_norm(ring, inertia, p):
    return [ring.norm_element(inertia).scale(p), ring.one().scale(inertia.order)]


def wrong_backward_rep(generators):
    def backward_rep(ring, inertia):
        p = min(prime_factors(inertia.order))
        return IdealLattice.from_elements(ring, generators(ring, inertia, p))

    return backward_rep


def inertia_groups(ring):
    return {pair.inertia for pair in build_sets(ring.group).stilde}


@pytest.mark.parametrize("facs", GROUPS)
@pytest.mark.parametrize("generators", [index_too_large_order, index_too_small_norm])
def test_wrong_lattices_are_sublattices_of_p_power_index(facs, generators):
    ring = group_ring(make_group(facs))
    for inertia in inertia_groups(ring):
        p = min(prime_factors(inertia.order))
        true_index = lattices.backward_rep(ring, inertia).integral_index()
        wrong = IdealLattice.from_elements(ring, generators(ring, inertia, p))
        ratio, rest = divmod(wrong.integral_index(), true_index)
        assert rest == 0 and ratio > 1, (facs, inertia)
        assert set(prime_factors(ratio)) == {p}, (facs, inertia)


@pytest.mark.parametrize("facs", GROUPS)
@pytest.mark.parametrize(
    "generators, flags",
    [
        (index_too_large_order, ExtensionReport(False, True, True)),
        (index_too_small_norm, ExtensionReport(True, False, False)),
    ],
)
def test_ext_refutes_a_sublattice_of_p_power_index(facs, generators, flags, monkeypatch):
    ring = group_ring(make_group(facs))
    monkeypatch.setattr(lattices, "backward_rep", wrong_backward_rep(generators))
    for inertia in inertia_groups(ring):
        assert lattices.verify_extension_sequence(ring, inertia) == flags, (facs, inertia)


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_verify_ext_exits_2_on_a_wrong_backward_lattice(monkeypatch):
    monkeypatch.setattr(lattices, "backward_rep", wrong_backward_rep(index_too_large_order))
    code, out = run_main(["verify", "9", "--checks", "ext"])
    assert code == EXIT_CHECK
    assert "verdict\tfail" in out


def test_verify_triviality_exits_2_on_a_negated_prediction(monkeypatch):
    real = cohomology._predicted_component_triviality
    monkeypatch.setattr(cohomology, "_predicted_component_triviality", lambda *args: not real(*args))
    code, out = run_main(["verify", "15", "--checks", "triviality"])
    assert code == EXIT_CHECK
    assert "verdict\tfail" in out


def non_factor_first(monkeypatch):
    real = polys.factor_cyclotomic_mod_p

    def factors(m, p):
        fs = real(m, p)
        if len(fs) == 1:
            return fs
        d = len(fs[0]) - 1
        return [(1,) + (0,) * (d - 1) + (1,), *fs[1:]]

    monkeypatch.setattr(polys, "factor_cyclotomic_mod_p", factors)
    # the memo would hand back traces computed from the true factor
    monkeypatch.setattr(cohomology, "_LIFT_CACHE", {})


def test_root_power_traces_refuse_a_non_factor(monkeypatch):
    non_factor_first(monkeypatch)
    # Phi_7 = (X^3 + X + 1)(X^3 + X^2 + 1) mod 2; X^3 + 1 divides neither
    with pytest.raises(IdentityCheckError):
        cohomology._root_power_traces(7, 2, 3)


def test_verify_triviality_exits_2_on_a_non_factor(monkeypatch):
    non_factor_first(monkeypatch)
    code, _ = run_main(["verify", "28", "--checks", "triviality"])
    assert code == EXIT_CHECK
