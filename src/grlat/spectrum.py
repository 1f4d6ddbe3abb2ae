"""Valuation spectrum experiments over cyclic p-power group rings.

Samples elements x = (sigma - 1)*u + p^r*eps in Z[Z/p^r], computes the
valuation c_i = v_p Res(Phi_{p^i}, x) of each cyclotomic character
value, and tests whether their total lands in the predicted value set.
Beside it, snf_total is v_p of the index [Z[G] : (N, x)], read off the
p-parts of the Smith invariants of the ideal's lattice by
intmat.smith_valuations: elimination modulo p^k on the row N and the
n translates of x, with no HNF of the whole lattice.

Z[Z/p^r] is Z[X]/(X^n - 1) with n = p^r and sigma -> X, so every
element here is its coefficient list, constant term first, and the
translate X^i x is the rotation of x by i places.  No GroupRing is
built: grouprings keeps the one implementation for general groups, and
the tests compare these rows with its multiplication matrix.

A character valuation is read off the Eisenstein expansion, with no
resultant: Z_p[zeta_{p^i}] is totally ramified of degree
e = phi(p^i) with uniformizer T = zeta - 1 (Washington, GTM 83, ch. 1),
so f(zeta) = sum_{j<e} a_j T^j has valuation min_j (e v_p(a_j) + j),
the terms having distinct valuations mod e.  That costs O(e^2)
additions, against O(e^3) operations on growing integers for the
determinant of multiplication by f on Z[X]/(Phi_{p^i}).

The two totals stay independent: the character side never sees the
lattice, and the Smith route never sees f(zeta), since its starting
precision k = rp depends on p and r alone and its answer certifies
itself (width pivots of valuation < k are exact, else k doubles).
Their agreement on every sample is the oracle identity the module
exists to exercise; the spectrum command checks it.

The Smith route is still the larger part of a sample's cost: about
two thirds at (3,3) and (5,2), 85% at (3,4) and (7,2) and 99% at
p = 79, timed around smith_valuations over 100-1000 samples on a
2-core machine.  The whole grows steeply with the ring order, and
large coefficients cost the bound p^coeff_exp and memory, so a run is
admitted by one estimate of its cost, run_cost, against
SPECTRUM_COST_CAP: the larger of its time and the bytes it holds,
fitted on timed runs.  A ring past grouprings.RING_ORDER_CAP is
refused first, on bit lengths.
"""

from dataclasses import dataclass
from math import isqrt
from random import Random

from .abelian import is_prime, p_split, prime_factors
from .errors import CapacityError, DegenerateElementError, ScopeError
from .grouprings import RING_ORDER_CAP
from .intmat import smith_valuations

MAX_RESAMPLE = 512
# a run whose run_cost passes this is refused before its first draw
SPECTRUM_COST_CAP = 28_500_000


def run_cost(p: int, r: int, coeff_exp: int, samples: int) -> int:
    """Estimated cost of a spectrum run, sample_spectrum(p, r,
    coeff_exp, samples) and the command's checks of its samples: the
    larger of its time, in microseconds of a 2-core machine, and a
    fifth of the bytes it holds beyond the interpreter.  p^r must be
    within the ring cap, so q = p^(rp) below has at most 49,152 bits.

    The time per sample was fitted on 26 runs timed twice each, the
    bytes on the peak rss of 105 more and the bound on timed powers.
    With cb = coeff_exp * bitlength(p) the bits of a coefficient, the
    time has these terms:
    - the draws' bound p^coeff_exp, built once by Karatsuba squarings
      of d = cb/30 digits: d^1.5;
    - per sample, the Smith side (intmat.smith_valuations): n pivots
      over n + 1 packed rows of n slots of w bits, w the slot width at
      the start precision q of build_sample, each row update a
      multiply-add by a factor of D = digits(q) 30-bit digits,
      n^3 w (6 + D); an interpreter step per pivot, n, and per pivot
      and row, n^2; and reducing the n^2 entries of the translates of
      x mod q, n^2 cb (D + 11), where a one-digit q divides faster;
    - per sample, the draws, x, the character expansions and the
      command's checks of the sample, n cb.
    The bytes held are every sample's coefficients, the working
    integers of one sample and the n^2 entries and n + 1 packed rows of
    the elimination.
    """
    n = p**r
    q = p ** (r * p)
    w = ((n + 2) * q * q).bit_length()
    digits = -(-q.bit_length() // 30)
    cb = coeff_exp * p.bit_length()
    d = cb // 30
    sample = (
        70
        + 13 * n
        + n * n // 2
        + n**3 * w * (6 + digits) // 52_500
        + n * n * cb * (2 if digits == 1 else digits + 11) // 18_500
        + n * cb // 167
    )
    time = d * isqrt(d) // 120 + samples * sample
    held = samples * (350 + n * (36 + cb // 8)) + (8 + 2 * n) * cb // 8 + n * n * (40 + 3 * w // 16)
    return max(time, held // 5)


def _check_scope(p: int, r: int) -> None:
    """Refuse r < 1 and a p that is not an odd prime."""
    if r < 1:
        raise ScopeError("level r must be at least 1")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ScopeError("p must be an odd prime")


def _ring_order(p: int, r: int) -> int:
    """The order n = p^r of Z[Z/p^r], for an odd prime p and r >= 1.

    A ring past grouprings.RING_ORDER_CAP is refused before p is tested
    for primality, on bit lengths first: p^r >= 2^(r (b - 1)) for b the
    bit length of p, so p**r is never built for a huge r.  r < 1 and
    p < 3 are left to _check_scope's usage errors.
    """
    if r >= 1 and p >= 3 and (r * (p.bit_length() - 1) > RING_ORDER_CAP.bit_length() or p**r > RING_ORDER_CAP):
        raise CapacityError(f"group of order {p}^{r} exceeds ring cap {RING_ORDER_CAP}")
    _check_scope(p, r)
    return p**r


def _level_valuation(f, p: int, i: int) -> int | None:
    """v_p of Res(Phi_{p^i}, f), or None when f(zeta_{p^i}) = 0.

    f is any coefficient list, constant term first.  It is folded mod
    X^{p^i} - 1, reduced mod Phi_{p^i}, shifted to X = 1 + T, and the
    valuation is min_j (e v_p(a_j) + j) over the nonzero coefficients
    a_j of T^j, with e = phi(p^i).
    """
    q = p ** (i - 1)
    m = p * q
    e = m - q
    g = [0] * m
    for k, c in enumerate(f):
        g[k % m] += c
    # X^(e + t) = -(X^t + X^(q + t) + ... + X^((p - 2) q + t)) mod Phi_{p^i}
    top = g[e:]
    g = [c - top[k % q] for k, c in enumerate(g[:e])]
    # Taylor shift by repeated synthetic division: g[lo] is final after
    # the pass that starts at lo
    for lo in range(e - 1):
        for k in range(e - 2, lo - 1, -1):
            g[k] += g[k + 1]
    vals = [e * p_split(a, p)[0] + j for j, a in enumerate(g) if a]
    return min(vals) if vals else None


def char_valuation(x, i: int) -> int:
    """p-adic valuation of the i-th level character value of x, the
    coefficient sequence of an element of Z[Z/p^r] (so p^r = len(x)).

    By total ramification of the p^i-th cyclotomic field at p this is
    the normalized additive local valuation of the character value, and
    equals v_p of Res(Phi_{p^i}, f_x); it is read off the expansion of
    the value in powers of zeta - 1.  Raises if the character kills x.
    """
    m = len(x)
    p = min(prime_factors(m))
    if i < 1 or p**i > m:
        raise ScopeError("character level out of range")
    v = _level_valuation(x, p, i)
    if v is None:
        raise DegenerateElementError(f"character at level {i} vanishes on the element")
    return v


@dataclass(frozen=True)
class SpectrumSample:
    """One sampled element with both valuation totals precomputed.

    a_values uses None where the corresponding character kills u
    (infinite valuation); c_values is always finite by construction.
    """

    p: int
    r: int
    epsilon: int
    x: tuple
    c_values: tuple
    a_values: tuple
    snf_total: int
    attempts: int

    @property
    def total(self) -> int:
        return sum(self.c_values)


def predicted_membership(v: int, p: int, r: int, n: int = 1) -> bool:
    """Whether v lies in {rn, r(n+1), ..., r(n+p-1)} or beyond r(n+p-1)."""
    if n < 1:
        raise ScopeError("n must be at least 1")
    _check_scope(p, r)
    top = r * (n + p - 1)
    if v > top:
        return True
    return v % r == 0 and r * n <= v <= top


def build_sample(p: int, r: int, ucoeffs, epsilon: int = 1, attempts: int = 1) -> SpectrumSample:
    """Assemble x = (sigma-1)*u + p^r*epsilon and compute both totals."""
    n = _ring_order(p, r)
    if epsilon % p == 0:
        raise ScopeError("epsilon must be prime to p")
    if len(ucoeffs) != n:
        raise ScopeError(f"expected {n} coefficients")
    u = list(ucoeffs)
    # x_j = u_(j-1) - u_j; index -1 wraps round to u_(n-1)
    x = [u[j - 1] - u[j] for j in range(n)]
    x[0] += n * epsilon
    c_values = tuple(char_valuation(x, i) for i in range(1, r + 1))
    a_values = [_level_valuation(u, p, i) for i in range(1, r + 1)]
    # v_p of [Z[G] : (N, x)] from N once (its translates are all N) and
    # the n translates X^i x, row i of the multiplication matrix of x.
    # Precision p^(rp) exceeds every low-case total r(1 + a_1) <= r(p - 1),
    # so only a high-case sample can need a doubling.  The caller checks
    # sum(c_values) == snf_total.
    rows = [[1] * n, *(x[n - i :] + x[: n - i] for i in range(n))]
    snf_total = sum(smith_valuations(rows, n, p, r * p))
    return SpectrumSample(
        p,
        r,
        epsilon,
        tuple(x),
        c_values,
        tuple(a_values),
        snf_total,
        attempts,
    )


def sample_spectrum(p: int, r: int, coeff_exp: int = 5, count: int = 100, seed: int = 0):
    """Draw count nondegenerate samples, coefficients uniform in [0, p^coeff_exp).

    Each slot reseeds from (seed, slot, attempt), so runs with the same
    parameters are reproducible bit for bit and dropping the count only
    truncates the list.  Rejected degenerate draws stay visible through
    the attempts field of the surviving sample.
    """
    n = _ring_order(p, r)
    if coeff_exp < 1:
        raise ScopeError("coeff_exp must be at least 1")
    if count < 1:
        raise ScopeError("sample count must be at least 1")
    cost = run_cost(p, r, coeff_exp, count)
    if cost > SPECTRUM_COST_CAP:
        raise CapacityError(f"estimated cost {cost} of the run exceeds spectrum cost cap {SPECTRUM_COST_CAP}")
    bound = p**coeff_exp
    samples = []
    for slot in range(count):
        for attempt in range(MAX_RESAMPLE):
            rng = Random(f"{seed}:{slot}:{attempt}")
            ucoeffs = tuple(rng.randrange(bound) for _ in range(n))
            try:
                samples.append(build_sample(p, r, ucoeffs, 1, attempt + 1))
                break
            except DegenerateElementError:
                continue
        else:
            raise CapacityError(f"slot {slot}: {MAX_RESAMPLE} degenerate draws in a row")
    return samples


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of the per-sample structural claims."""

    augmentation_ok: bool
    dichotomy_ok: bool
    case1_ok: bool
    case2_ok: bool

    @property
    def ok(self) -> bool:
        return self.augmentation_ok and self.dichotomy_ok and self.case1_ok and self.case2_ok


def verify_claims(sample: SpectrumSample) -> ClaimReport:
    """Check the augmentation shape, the low-valuation dichotomy, and
    the two case consequences on one sample.

    Low case (some finite a_i < p-1): all a_i must be equal, and when
    1+a_1 < r(p-1) the total must be r*(1+a_1), landing in
    {r, ..., (p-1)r}.  High case (every a_i >= p-1, vanishing counts as
    infinite): every c_i >= min(p, r*p^{i-1}*(p-1)) and the total at
    least their sum.  For r >= 2 both strictness conditions hold
    automatically and the checks reduce to total == r*(1+a_1) resp.
    all c_i >= p with total >= pr; only at r = 1 can the level-1
    character value tie the constant term and escape the sharp form.
    """
    p, r = sample.p, sample.r
    # build_sample has checked p and r; the augmentation is the coefficient sum
    augmentation_ok = sum(sample.x) == p**r * sample.epsilon and sample.epsilon % p != 0
    finite = [a for a in sample.a_values if a is not None]
    low = bool(finite) and min(finite) < p - 1
    if low:
        dichotomy_ok = len(finite) == len(sample.a_values) and len(set(finite)) == 1
        a1 = sample.a_values[0]
        if dichotomy_ok and 1 + a1 < r * (p - 1):
            case1_ok = sample.total == r * (1 + a1) and r <= sample.total <= r * (p - 1)
        else:
            # tied leading valuations: only a lower bound survives
            case1_ok = dichotomy_ok and sample.total >= p - 1
        case2_ok = True
    else:
        dichotomy_ok = True
        case1_ok = True
        floors = [min(p, r * p ** (i - 1) * (p - 1)) for i in range(1, r + 1)]
        case2_ok = all(c >= f for c, f in zip(sample.c_values, floors)) and sample.total >= sum(
            floors
        )
    return ClaimReport(augmentation_ok, dichotomy_ok, case1_ok, case2_ok)
