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
is not idempotent mod p, and the lift refuses it.  The factorization
of Phi_m mod p is itself fed a polynomial in place of Phi_m, and must
refuse it: one that no coset sum splits, one whose factors differ in
degree, and one with a square factor.

The inertia module is built with the exponent of its Frobenius flipped,
fbar acting as a instead of a^-1 (a = 1 + #I): on Z/9 with #I = 3 and
phi = 1, a = 4 and a^-1 = 16 differ modulo a^3 - 1 = 63, so the witness
that e_0 is killed by A_(-phi) - a must refuse it, and the tate and
triviality sweeps must exit 2.  For f <= 2 the sign cannot show, as
a^-1 = a^(f-1) modulo a^f - 1.

Unit transport is run on every pair of pairs with the same inertia I
and different decomposition subgroups D: no unit of Z_p[G/I] carries
one coset difference to the other there (phi_b = k phi_a mod I forces
p | k, or has no solution), so the walk over the cosets of I must
refuse each pair, and so must the reference routes with their
decomposition guard bypassed: the rational route's solve, and the k
searches in Z[G/I] in Smith coordinates and on N_I Z[G].  Through `cli.main`, a family whose projection
merges pairs by inertia alone puts such pairs in the unit sweep, which
must exit 2.

Through `cli.main`, every other check is fed a wrong ingredient and must
exit 2: a Tate prediction with c off by one, an inertia norm scaled by a
prime dividing #I in the kernel check, and one flipped bit of the
monoid's beta marking.  Each remaining flag of the spectrum and monoid
reports gets its own ingredient, and every other flag of that report
must still pass:

- spectrum `membership`: a membership parameter n off by one, so the
  sampled totals miss the predicted set;
- spectrum `claims`: one sample whose epsilon is divisible by p;
- monoid `injective_on_irreducibles`: two equal beta images on the
  irreducible locus;
- monoid `counts_consistent`: one target tuple listed twice;
- monoid `bounded_injectivity`: four images with two sums of two equal.
"""

import contextlib
import dataclasses
import io
import random

import pytest

import reference
from grlat import cli, cohomology, grouprings, lattices, monoid, polys
from grlat.abelian import Subgroup, make_group, prime_factors
from grlat.cli import EXIT_CHECK, main
from grlat.errors import IdentityCheckError, UnitNotFoundError
from grlat.grouprings import IdealLattice, group_ring, inertia_module
from grlat.lattices import ExtensionReport
from grlat.monoid import build_sets
from reference import (
    ref_delta,
    ref_norm_element,
    ref_one,
    ref_preimage_is_standard,
    ref_unit_transport_in_quotient,
    ref_verify_unit_on_norm_copy,
    ref_verify_unit_transport,
    unit_route_outcome,
)

GROUPS = ([9], [27], [3, 3], [2, 4], [15])


def index_too_large_order(ring, inertia, p):
    return [ref_norm_element(ring, inertia), ref_one(ring).scale(p * inertia.order)]


def index_too_small_norm(ring, inertia, p):
    return [ref_norm_element(ring, inertia).scale(p), ref_one(ring).scale(inertia.order)]


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
    n_i = ref_norm_element(ring, inertia)
    order = ref_one(ring).scale(inertia.order)
    p = min(prime_factors(inertia.order))
    elems = list(ring.group.elements())

    def shift():
        return ref_delta(ring, rng.choice(elems))

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
            ring, [ref_norm_element(ring, inertia), ref_one(ring).scale(inertia.order)]
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


def flipped_frobenius_exponent(monkeypatch):
    real = grouprings._induced_actions
    monkeypatch.setattr(
        grouprings,
        "_induced_actions",
        lambda inertia, dec, frob, unit, m: real(inertia, dec, frob, pow(unit, -1, m), m),
    )


def test_inertia_module_refuses_a_flipped_frobenius_exponent(monkeypatch):
    g = make_group([9])
    inertia = Subgroup.from_generators(g, [g.element((3,))])
    mod = inertia_module(inertia, g.element((1,)))
    assert mod.modulus == 63 and mod.rank == 1
    flipped_frobenius_exponent(monkeypatch)
    with pytest.raises(IdentityCheckError):
        inertia_module(inertia, g.element((1,)))


@pytest.mark.parametrize("check", ["tate", "triviality"])
def test_verify_exits_2_on_a_flipped_frobenius_exponent(check, monkeypatch):
    flipped_frobenius_exponent(monkeypatch)
    code, out = run_main(["verify", "9", "--checks", check])
    assert code == EXIT_CHECK
    assert out == ""


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


@pytest.mark.parametrize(
    "m, p, fake",
    [
        # X^3 + X + 1 and X^2 + X + 1: no coset sum of 2 mod 7 splits it
        (7, 2, reference.poly_mul((1, 1, 0, 1), (1, 1, 1))),
        # X^2 + X + 1 and X^3 + 2: degrees 2 and 3, not ord_13(5) = 4
        (13, 5, reference.poly_mul((1, 1, 1), (2, 0, 0, 1))),
        # (X^2 + 1)^2 in place of Phi_8 = (X^2 + X + 2)(X^2 + 2X + 2) mod 3
        (8, 3, reference.poly_mul((1, 0, 1), (1, 0, 1))),
    ],
)
def test_factorization_refuses_a_wrong_cyclotomic(m, p, fake, monkeypatch):
    monkeypatch.setattr(polys, "cyclotomic", lambda n: fake)
    with pytest.raises(IdentityCheckError):
        polys.factor_cyclotomic_mod_p(m, p)


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
    # the sweep hands each verdict c = #(H meet I) from its key
    real = cli.prediction_verdict

    def off_by_one(module, dec, meet, c):
        return real(module, dec, meet, c + 1)

    monkeypatch.setattr(cli, "prediction_verdict", off_by_one)
    code, out = run_main(["verify", "9", "--checks", "tate"])
    assert code == EXIT_CHECK
    rows = [line for line in out.splitlines() if line.startswith("results.rows\ttate\t")]
    assert rows and all(line.endswith("\tfail;fail") for line in rows)


def test_verify_kernel_exits_2_on_a_scaled_inertia_norm(monkeypatch):
    # 2 divides #I for every inertia group of Z/8; on Z/9 a factor 2
    # would rightly pass, as (2 N_I, g) = (N_I, g) there.  The kernel
    # path takes N_I, a term map, from _forward_generators
    real = lattices._forward_generators

    def scaled(*args):
        lift, n_i, g = real(*args)
        return lift, {j: 2 * c for j, c in n_i.items()}, g

    monkeypatch.setattr(lattices, "_forward_generators", scaled)
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
        return [out[0] ^ 1, *out[1:]]

    monkeypatch.setattr(monoid, "_beta_values", flipped)
    code, out = run_main(["monoid", spec])
    assert code == EXIT_CHECK
    assert f"{check}\tfail" in out


# -- unit transport between pairs of different decomposition subgroups --------


def bypass_decomposition_guard(monkeypatch):
    # the reference routes compare decomposition_subgroup(I, phi_a) with
    # that of phi_b; answering I for every phi lets every same-I pair
    # through to their k search.  verify_unit_transport has no such
    # guard to bypass: its walk over the cosets of I refuses them itself
    monkeypatch.setattr(reference, "decomposition_subgroup", lambda inertia, frob: inertia)


def refused(check, *args):
    try:
        check(*args)
    except UnitNotFoundError:
        return True
    return False


@pytest.mark.parametrize(
    "facs, pairs",
    [([9], 2), ([27], 22), ([3, 3], 8), ([2, 4], 19), ([8], 6), ([16], 27), ([3, 9], 100)],
)
def test_unit_transport_refuses_pairs_of_different_decomposition(facs, pairs, monkeypatch):
    ring = group_ring(make_group(facs))
    fam = build_sets(ring.group)
    stilde, proj = fam.stilde, fam.projection
    bypass_decomposition_guard(monkeypatch)
    compared = 0
    for i, a in enumerate(stilde):
        for j, b in enumerate(stilde[i + 1 :], i + 1):
            # the same I and a different (I, D) pair: a different D
            if a.inertia != b.inertia or proj[i] == proj[j]:
                continue
            args = (ring.group, a.inertia, a.frob, b.frob)
            assert refused(lattices.verify_unit_transport, *args), (facs, a, b)
            assert refused(ref_verify_unit_transport, *args), (facs, a, b)
            compared += 1
    assert compared == pairs


@pytest.mark.parametrize(
    "facs, pairs",
    [([9], 2), ([27], 22), ([3, 3], 8), ([2, 4], 19), ([8], 6), ([16], 27), ([3, 9], 100)],
)
def test_unit_transport_in_the_quotient_refuses_what_the_norm_copy_refuses(facs, pairs, monkeypatch):
    # the same pairs of different D, refused by the walk over the cosets
    # of I, and by the guard-bypassed k searches of the identity in
    # Z[G/I] in Smith coordinates and on N_I Z[G]
    ring = group_ring(make_group(facs))
    fam = build_sets(ring.group)
    stilde, proj = fam.stilde, fam.projection
    bypass_decomposition_guard(monkeypatch)
    compared = 0
    for i, a in enumerate(stilde):
        for j, b in enumerate(stilde[i + 1 :], i + 1):
            # the same I and a different (I, D) pair: a different D
            if a.inertia != b.inertia or proj[i] == proj[j]:
                continue
            args = (ring.group, a.inertia, a.frob, b.frob)
            got = unit_route_outcome(lattices.verify_unit_transport, *args)
            assert got == unit_route_outcome(ref_verify_unit_on_norm_copy, *args), (facs, a, b)
            assert got == unit_route_outcome(ref_unit_transport_in_quotient, *args), (facs, a, b)
            compared += 1
    assert compared == pairs


def test_verify_unit_exits_2_on_pairs_merged_by_inertia(monkeypatch):
    real = cli.build_pair_sets

    def merged_by_inertia(group):
        fam = real(group)
        return dataclasses.replace(fam, projection=tuple(pair.inertia for pair in fam.stilde))

    monkeypatch.setattr(cli, "build_pair_sets", merged_by_inertia)
    code, out = run_main(["verify", "9", "--checks", "unit"])
    assert code == EXIT_CHECK
    rows = [line for line in out.splitlines() if line.startswith("results.rows\tunit\t")]
    # Z/9 has one equal-(I, D) pair and two pairs of different D
    assert sorted(line.rsplit("\t", 1)[1] for line in rows) == ["fail", "fail", "pass"]


# -- the remaining flags of the spectrum and monoid reports -------------------


def failed_checks(out):
    checks = [line.split("\t")[1:] for line in out.splitlines() if line.startswith("results.checks\t")]
    return [name for name, flag in checks if flag != "pass"]


SPECTRUM = ["spectrum", "--p", "3", "--r", "2", "--samples", "8", "--seed", "1"]


def test_spectrum_membership_exits_2_on_a_parameter_off_by_one():
    # totals 2 and 6 are attained; with n = 2 the predicted set starts at 4
    code, out = run_main([*SPECTRUM, "--n", "2"])
    assert code == EXIT_CHECK
    assert failed_checks(out) == ["membership"]


def test_spectrum_claims_exit_2_on_an_epsilon_divisible_by_p(monkeypatch):
    real = cli.sample_spectrum

    def first_epsilon_p(p, *args):
        first, *rest = real(p, *args)
        return [dataclasses.replace(first, epsilon=p), *rest]

    monkeypatch.setattr(cli, "sample_spectrum", first_epsilon_p)
    code, out = run_main(SPECTRUM)
    assert code == EXIT_CHECK
    assert failed_checks(out) == ["claims"]
    assert "results.passes.claims\t7" in out


def corrupt_beta(monkeypatch, corrupt):
    real = monoid._beta_values

    def corrupted(family, pairs):
        out = real(family, pairs)
        corrupt(out, family.s_prime)
        return out

    monkeypatch.setattr(monoid, "_beta_values", corrupted)


@pytest.mark.parametrize("spec", ["2,6", "2,2,3"])
def test_monoid_exits_2_on_two_equal_irreducible_images(spec, monkeypatch):
    def equal_images(out, s_prime):
        out[s_prime[1]] = out[s_prime[0]]

    corrupt_beta(monkeypatch, equal_images)
    code, out = run_main(["monoid", spec])
    assert code == EXIT_CHECK
    assert failed_checks(out) == ["injective_on_irreducibles"]


@pytest.mark.parametrize("spec", ["9", "3,3"])
def test_monoid_exits_2_on_a_target_tuple_listed_twice(spec, monkeypatch):
    real = monoid.build_sets

    def one_more_target(group):
        fam = real(group)
        return dataclasses.replace(fam, t_tuples=fam.t_tuples + fam.t_tuples[-1:])

    monkeypatch.setattr(monoid, "build_sets", one_more_target)
    code, out = run_main(["monoid", spec])
    assert code == EXIT_CHECK
    assert failed_checks(out) == ["counts_consistent"]


@pytest.mark.parametrize("spec", ["27", "3,3"])
def test_monoid_exits_2_on_two_equal_sums_of_images(spec, monkeypatch):
    # from unit images e0..e3: e0 + e1, e2, e0 + e2, e1 are distinct and
    # irreducible, and (e0 + e1) + e2 = (e0 + e2) + e1
    def equal_sums(out, s_prime):
        a, b, c, d = s_prime[:4]
        e0, e1, e2 = out[a], out[b], out[c]
        assert all(e.bit_count() == 1 for e in (e0, e1, e2, out[d]))
        out[a], out[b], out[c], out[d] = e0 | e1, e2, e0 | e2, e1

    corrupt_beta(monkeypatch, equal_sums)
    code, out = run_main(["monoid", spec])
    assert code == EXIT_CHECK
    assert failed_checks(out) == ["bounded_injectivity"]


def test_monoid_exits_2_when_two_sylow_parts_share_a_bit(monkeypatch):
    # Z/6 has one pair off the irreducible locus, (G, G), whose Sylow
    # parts are (I_2, G) and (I_3, G).  Both parts become the one bit e
    # and beta(G, G) the int 2e: the int sum of the parts matches, but
    # the 0/1 vectors sum to 2 at e's coordinate, not to the next bit.
    real = monoid._beta_values

    def shared_bit(family, pairs):
        out = real(family, pairs)
        [mixed] = set(range(len(out))) - set(family.s_prime)
        for i, pr in enumerate(family.s_pairs):
            if pr.dec == family.s_pairs[mixed].dec and i != mixed:
                out[i] = 1
        out[mixed] = 2
        return out

    monkeypatch.setattr(monoid, "_beta_values", shared_bit)
    code, out = run_main(["monoid", "6"])
    assert code == EXIT_CHECK
    assert "decomposition_law" in failed_checks(out)
