"""Negative controls: a certificate that no input can make fail shows
nothing, so each check here is fed a minimally wrong input and must
fail.

The extension check is run on backward lattices that are sublattices
of the true one, (N_I, #I), of index a nontrivial power of p, with p the
least prime dividing #I:

- (N_I, p #I) changes the image of the lattice under the projection
  killing nu Q[G], so `image_matches` fails and nothing else;
- (p N_I, #I) keeps that image, but its nu-part is p times too small,
  so the embedding fact fails and `image_matches` holds.

The two facts hold together exactly when the lattice is (N_I, #I), the
lattice backward_rep builds, so on the real input ext cannot fail; a
characterisation test pins that on seeded perturbations of the two
generators, and a differential test checks that the embedding fact
decides the same predicate as the preimage fact it replaced.

The triviality check is run with its prediction negated, and with the
lex-least factor of a split Phi_m mod p replaced by X^d + 1 (for Phi_7
mod 2, X^3 + 1 divides neither factor); the idempotent its traces give
is not idempotent mod p, and the lift refuses it.

Through `cli.main`, every other check is fed a wrong ingredient and must
exit 2: a Tate prediction with c off by one, an inertia norm scaled by a
prime dividing #I in the kernel check, and one flipped bit of the
monoid's beta marking.
"""

import contextlib
import io
import random

import pytest

from grlat import cli, cohomology, lattices, monoid, polys
from grlat.abelian import make_group, prime_factors
from grlat.cli import EXIT_CHECK, main
from grlat.errors import IdentityCheckError
from grlat.grouprings import GroupRing, IdealLattice, group_ring
from grlat.lattices import ExtensionReport
from grlat.monoid import build_sets
from reference import ref_preimage_is_standard

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
        (index_too_large_order, ExtensionReport(False, True)),
        (index_too_small_norm, ExtensionReport(True, False)),
    ],
)
def test_ext_refutes_a_sublattice_of_p_power_index(facs, generators, flags, monkeypatch):
    ring = group_ring(make_group(facs))
    monkeypatch.setattr(lattices, "backward_rep", wrong_backward_rep(generators))
    for inertia in inertia_groups(ring):
        assert lattices.verify_extension_sequence(ring, inertia) == flags, (facs, inertia)


def ext_on(ring, inertia, lattice, monkeypatch):
    monkeypatch.setattr(lattices, "backward_rep", lambda ring, inertia: lattice)
    return lattices.verify_extension_sequence(ring, inertia)


@pytest.mark.parametrize("facs", GROUPS)
def test_embedding_fact_equals_the_preimage_fact_on_the_controls(facs, monkeypatch):
    ring = group_ring(make_group(facs))
    seen = set()
    for inertia in inertia_groups(ring):
        p = min(prime_factors(inertia.order))
        for generators in (index_too_large_order, index_too_small_norm):
            lat = IdealLattice.from_elements(ring, generators(ring, inertia, p))
            primitive = ext_on(ring, inertia, lat, monkeypatch).embedding_primitive
            assert primitive == ref_preimage_is_standard(ring, inertia, lat), (facs, inertia)
            seen.add(primitive)
    assert seen == {True, False}


PERTURBED_GROUPS = (
    [9], [27], [3, 3], [2, 4], [15], [8], [16], [2, 2, 2], [3, 9], [2, 8], [12], [25],
)


def perturbed_lattices(ring, inertia, rng):
    """Seeded perturbations of the generators N_I and #I of the true
    backward lattice: translates and added multiples that leave the
    ideal (N_I, #I) unchanged, the generators scaled by p or p^2 for p
    | #I, and small random elements added to a generator or as a third
    generator."""
    n_i = ring.norm_element(inertia)
    order = ring.one().scale(inertia.order)
    p = min(prime_factors(inertia.order))
    elems = list(ring.group.elements())

    def shift():
        return ring.delta(rng.choice(elems))

    def small():
        return ring.from_coeffs(rng.randrange(-2, 3) for _ in range(ring.n))

    gens = [
        [n_i, order],
        [n_i * shift(), order * shift()],
        [n_i + order * small(), order],
        [n_i, order, n_i * small()],
        [n_i.scale(p), order],
        [n_i.scale(p * p) * shift(), order],
        [n_i, order.scale(p)],
        [n_i * shift(), order.scale(p * p)],
        [n_i.scale(p) + order * small(), order.scale(p)],
        [n_i + small(), order],
        [n_i, order.scale(p), small()],
        [n_i, order, small()],
    ]
    return [IdealLattice.from_elements(ring, g) for g in gens]


def perturbation_set(facs):
    ring = group_ring(make_group(facs))
    rng = random.Random(str(facs))
    for inertia in sorted(inertia_groups(ring), key=lambda s: s.basis):
        for lat in perturbed_lattices(ring, inertia, rng):
            yield ring, inertia, lat


@pytest.mark.parametrize("facs", PERTURBED_GROUPS)
def test_embedding_fact_equals_the_preimage_fact_on_perturbations(facs, monkeypatch):
    seen = set()
    for ring, inertia, lat in perturbation_set(facs):
        primitive = ext_on(ring, inertia, lat, monkeypatch).embedding_primitive
        assert primitive == ref_preimage_is_standard(ring, inertia, lat), (facs, inertia)
        seen.add(primitive)
    assert seen == {True, False}


@pytest.mark.parametrize("facs", PERTURBED_GROUPS)
def test_ext_passes_exactly_on_the_ideal_of_the_inertia_norm_and_order(facs, monkeypatch):
    """Ext cannot fail on backward_rep's lattice: an integer vector
    killed by the projection is constant on the cosets of I, so both
    facts hold exactly when the lattice is (N_I, #I)."""
    seen = set()
    for ring, inertia, lat in perturbation_set(facs):
        ideal = IdealLattice.from_elements(
            ring, [ring.norm_element(inertia), ring.one().scale(inertia.order)]
        )
        ok = ext_on(ring, inertia, lat, monkeypatch).ok
        assert ok == (lat.basis == ideal.basis), (facs, inertia)
        seen.add(ok)
    assert seen == {True, False}


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


def test_verify_tate_exits_2_on_a_wrong_c(monkeypatch):
    real = cli.prediction_data

    def off_by_one(*args):
        big, c = real(*args)
        return big, c + 1

    monkeypatch.setattr(cli, "prediction_data", off_by_one)
    code, out = run_main(["verify", "9", "--checks", "tate"])
    assert code == EXIT_CHECK
    rows = [line for line in out.splitlines() if line.startswith("results.rows\ttate\t")]
    assert rows and all(line.endswith("\tfail;fail") for line in rows)


def test_verify_kernel_exits_2_on_a_scaled_inertia_norm(monkeypatch):
    # 2 divides #I for every inertia group of Z/8; on Z/9 a factor 2
    # would rightly pass, as (2 N_I, g) = (N_I, g) there
    real = GroupRing.norm_element
    monkeypatch.setattr(GroupRing, "norm_element", lambda self, sub: real(self, sub).scale(2))
    code, out = run_main(["verify", "8", "--checks", "kernel"])
    assert code == EXIT_CHECK
    rows = [line for line in out.splitlines() if line.startswith("results.rows\tkernel\t")]
    assert len(rows) == 7 and all(line.endswith("\tfail") for line in rows)


@pytest.mark.parametrize(
    "spec, check", [("9", "irreducibility"), ("3,3", "irreducibility"),
                    ("6", "decomposition_law"), ("15", "decomposition_law")]
)
def test_monoid_exits_2_on_a_flipped_beta_bit(spec, check, monkeypatch):
    real = monoid._beta_values

    def flipped(*args):
        out = real(*args)
        first = out[0]
        return [(1 - first[0],) + first[1:], *out[1:]]

    monkeypatch.setattr(monoid, "_beta_values", flipped)
    code, out = run_main(["monoid", spec])
    assert code == EXIT_CHECK
    assert f"{check}\tfail" in out
