"""Exponential and character sums against independent brute loops and oracles."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from deltasums.characters import character
from deltasums.expsums import (
    AlphaBetaNotCoprime,
    EllNotCoprime,
    ParameterConflict,
    _csum,
    _delta_row,
    _ramanujan_row,
    alpha_factorization_check,
    fourier_expansion,
    frak_c,
    frak_c_closed_form,
    frak_k,
    frak_k_closed_form,
    gauss_sum,
    generalized_kloosterman,
    kloosterman_sum,
    ramanujan_sum,
    sqrt_cancellation_profile,
    trivial_delta,
    weil_bound_profile,
)
from deltasums.modular import MAX_MODULUS, mod_inverse, primes_in, unit_residues

from oracles import divisors_of, mobius


def _e(x: float) -> complex:
    return cmath.exp(2j * cmath.pi * x)


def test_trivial_delta_is_exact_indicator(seed=4):
    rng = random.Random(seed)
    for _ in range(400):
        q = rng.randrange(1, 400)
        n = rng.randrange(-2000, 2000)
        m = rng.randrange(-2000, 2000)
        expected = 1.0 if (n - m) % q == 0 else 0.0
        assert abs(trivial_delta(n, m, q) - expected) < 1e-10


def test_trivial_delta_q1():
    # modulus 1 has a single empty-phase term: always 1
    assert abs(trivial_delta(17, -5, 1) - 1.0) < 1e-15


def test_trivial_delta_rejects_bad_modulus():
    with pytest.raises(ValueError):
        trivial_delta(1, 1, 0)


def test_trivial_delta_refuses_non_integers():
    for args in ((7, 2, 5.5), (7.0, 2, 5), (7, Fraction(2), 5), (7, 2, "5"), (np.array([7.0]), 2, 5)):
        with pytest.raises(TypeError):
            trivial_delta(*args)


def test_trivial_delta_accepts_numpy_integers():
    assert trivial_delta(np.int64(47), np.int32(2), np.int64(5)) == trivial_delta(47, 2, 5)


def test_trivial_delta_reduces_huge_integers_before_any_array():
    assert trivial_delta(10**40 + 3, 3, 10) == 1.0
    assert trivial_delta(np.array([10**18, 10**18 + 1]), 10**40, 10).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("c", [1, 2, 12, 97, 30030, 11 * 47, 11 * 83, MAX_MODULUS])
def test_ramanujan_row_matches_von_sterneck(c):
    row = _ramanujan_row(c)
    assert row.shape == (c,) and row.dtype == np.float64 and not row.flags.writeable
    # von Sterneck's value depends on d only through g = gcd(c, d); here it
    # is the Mobius sum c_c(d) = sum over e | g of e * mu(c/e)
    gcds = np.gcd(np.arange(c), c).tolist()
    oracle = {g: sum(e * mobius(c // e) for e in divisors_of(g)) for g in set(gcds)}
    assert np.array_equal(row, [oracle[g] for g in gcds])


def test_delta_row_is_q_times_the_indicator():
    # sum over c | q of c_c(d) = q [q | d], exactly
    for q in range(1, 301):
        want = np.zeros(q)
        want[0] = q
        row = _delta_row(q)
        assert np.array_equal(row, want), q
        assert not row.flags.writeable


def test_ramanujan_sum_on_arrays_is_its_scalar_calls():
    for M in (1, 2, 12, 30, 97, 210, 360, 1001):
        a = np.arange(-3 * M, 3 * M)
        got = ramanujan_sum(M, a)
        assert got.dtype == np.int64
        want = [ramanujan_sum(M, int(x)) for x in a]
        assert all(isinstance(x, float) for x in want)
        assert _same_bits(got.astype(np.float64), want)


def test_ramanujan_sum_reduces_huge_integers_before_any_array():
    assert ramanujan_sum(10, 10**40) == 4.0
    assert ramanujan_sum(30030, 300300000000000000000000) == 5760.0


def test_ramanujan_sum_refuses_bad_arguments():
    for M in (0, -5):
        with pytest.raises(ValueError):
            ramanujan_sum(M, 1)
    for a in (2.0, np.float64(2.0), np.array([1.0, 2.0])):
        with pytest.raises(TypeError):
            ramanujan_sum(10, a)
    with pytest.raises(TypeError):
        ramanujan_sum(10.0, 2)


def test_csum_matches_fsum_over_numpy_scalars(seed=8):
    rng = np.random.default_rng(seed)
    for size in (0, 1, 480, 5000):
        z = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        z = z + 1j * rng.standard_normal(size)
        assert _csum(z) == complex(math.fsum(z.real), math.fsum(z.imag))


def test_ramanujan_sum_mobius_oracle(seed=6):
    # R_q(a) = sum_{d | gcd(a,q)} d * mu(q/d)
    rng = random.Random(seed)
    for _ in range(300):
        q = rng.randrange(1, 200)
        a = rng.randrange(0, 3 * q)
        oracle = sum(d * mobius(q // d) for d in divisors_of(math.gcd(a, q) or q))
        assert abs(ramanujan_sum(q, a) - oracle) < 1e-9


def test_ramanujan_sum_is_the_rounded_brute_sum():
    for q in range(1, 61):
        units = [z for z in range(q) if math.gcd(z, q) == 1]
        for n in range(q):
            brute = math.fsum(math.cos(2 * math.pi * (n * z % q) / q) for z in units)
            assert ramanujan_sum(q, n) == round(brute), (q, n)


def test_gauss_sum_direct_loop():
    for M, k in [(5, 1), (7, 3), (13, 5)]:
        chi = character(M, k)
        direct = sum(chi(y) * _e(y / M) for y in range(M))
        assert abs(gauss_sum(chi) - direct) < 1e-12


def test_gauss_sum_magnitude_and_pairing():
    for M in (5, 11, 31):
        for k in range(1, M - 1):
            chi = character(M, k)
            g = gauss_sum(chi)
            assert abs(abs(g) - math.sqrt(M)) < 1e-10
            # g_chi * conj(g_chi) reproduces chi(-1) * M via the bar character
            gbar = gauss_sum(chi.conjugate())
            assert abs(g * gbar - chi(M - 1) * M) < 1e-9


def test_kloosterman_direct_loop_and_known_value():
    def oracle(a, b, c):
        return sum(_e((a * x + b * mod_inverse(x, c)) / c) for x in map(int, unit_residues(c))).real

    assert abs(kloosterman_sum(1, 1, 5) - 0.381966011250105) < 1e-12
    for a, b, c in [(1, 1, 7), (2, 3, 11), (1, 4, 12), (5, 1, 25)]:
        assert abs(kloosterman_sum(a, b, c) - oracle(a, b, c)) < 1e-10


def _same_bits(got, want) -> bool:
    """Equal entries bit for bit (so 0.0 and -0.0 differ), shapes included."""
    want = np.asarray(want, dtype=got.dtype)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_kloosterman_on_arrays_is_its_scalar_calls(seed=15):
    rng = np.random.default_rng(seed)
    for c in (1, 2, 12, 25, 31, 101):
        a = rng.integers(-3 * c, 3 * c, size=(3, 1))
        b = rng.integers(-3 * c, 3 * c, size=4)
        got = kloosterman_sum(a, b, c)
        assert got.dtype == np.float64
        want = [[kloosterman_sum(int(x), int(y), c) for y in b] for x in a[:, 0]]
        assert _same_bits(got, want)
        # an array on one side only, and a 0-d array
        assert _same_bits(kloosterman_sum(7, b, c), [kloosterman_sum(7, int(y), c) for y in b])
        assert _same_bits(kloosterman_sum(np.array(-5), 3, c), kloosterman_sum(-5, 3, c))
    assert kloosterman_sum(np.array([], dtype=np.int64), 1, 7).shape == (0,)
    with pytest.raises(TypeError):
        kloosterman_sum(np.array([1.0]), 1, 7)


def test_frak_k_on_arrays_is_its_scalar_calls(seed=16):
    rng = np.random.default_rng(seed)
    for M, k in ((5, 1), (7, 3), (13, 6), (31, 29)):
        chi = character(M, k)
        r = rng.integers(-4 * M, 4 * M, size=5)
        ell = np.array([1, -1, M + 2, -3 * M - 1]).reshape(4, 1, 1)
        n = np.concatenate(([0, M, -2 * M], rng.integers(-4 * M, 4 * M, size=3))).reshape(6, 1)
        res = frak_k(chi, r, ell, n)
        assert res.shape == (4, 6, 5) and res.dtype == np.complex128
        want = [
            [[frak_k(chi, int(x), int(e), int(m)) for x in r] for m in n[:, 0]]
            for e in ell[:, 0, 0]
        ]
        assert _same_bits(res, want)
    with pytest.raises(EllNotCoprime):
        frak_k(character(11, 1), 1, np.array([1, 22]), 5)


def test_frak_c_on_arrays_is_its_scalar_calls(seed=17):
    rng = np.random.default_rng(seed)
    for M, k in ((5, 2), (7, 1), (11, 5), (13, 4)):
        chi = character(M, k)
        units = [x for x in range(-3 * M, 3 * M) if x % M]
        r1, r2, alpha, beta = (rng.integers(-3 * M, 3 * M, size=12) for _ in range(4))
        alpha[alpha % M == 0] += 1
        beta[beta % M == 0] -= 1
        # n = 0 mod M excludes no summand; any other n excludes z = -beta/n
        n = np.concatenate((M * rng.integers(-2, 3, size=4), rng.choice(units, size=8)))
        res = frak_c(chi, r1, r2, alpha, beta, n)
        scalar = [frak_c(chi, *map(int, args)) for args in zip(r1, r2, alpha, beta, n)]
        assert all(isinstance(x, complex) for x in scalar)
        assert _same_bits(res, scalar)
        # broadcast: one row of r1 against a column of n
        got = frak_c(chi, r1[:3], 1, 1, 1, n[:, None])
        assert got.shape == (12, 3)
        want = [[frak_c(chi, int(x), 1, 1, 1, int(m)) for x in r1[:3]] for m in n]
        assert _same_bits(got, want)
    # the excluded summand enters as 0: a direct loop that skips it
    chi = character(11, 3)
    for n in (0, 4, -7):
        direct = sum(
            chi.conjugate()(1 + z) * chi(2 + 3 * mod_inverse(n + 5 * mod_inverse(z, 11), 11))
            for z in range(1, 11)
            if (n + 5 * mod_inverse(z, 11)) % 11
        )
        assert abs(frak_c(chi, np.array([1]), 2, 3, 5, n)[0] - direct) < 1e-12
    with pytest.raises(AlphaBetaNotCoprime):
        frak_c(character(11, 1), 1, 1, np.array([1, 11]), 1, 2)


def test_weil_bound_profile():
    ratio, p_at = weil_bound_profile(200)
    assert ratio < 1.0
    assert 2 <= p_at <= 199


def test_weil_bound_profile_matches_full_matrix_brute():
    # every S(a, b; p) as the matrix product e(ax/p) @ e(b*xbar/p)
    worst, worst_p = 0.0, 0
    for p in primes_in(2, 60):
        x = np.arange(1, p)
        xbar = np.array([mod_inverse(int(v), p) for v in x])
        r = np.arange(p)
        sums = np.exp(2j * np.pi * np.outer(r, x) / p) @ np.exp(2j * np.pi * np.outer(xbar, r) / p)
        mags = np.abs(sums)
        mags[0, 0] = 0.0  # a = b = 0 is excluded
        ratio = mags.max() / (2.0 * math.sqrt(p))
        if ratio > worst:
            worst, worst_p = ratio, p
        got, got_p = weil_bound_profile(p)
        assert got_p == worst_p
        assert abs(got - worst) <= 1e-12, (p, got, worst)


@pytest.mark.parametrize("pmax", [1, 0, -7])
def test_weil_bound_profile_refuses_pmax_below_2(pmax):
    with pytest.raises(ValueError, match="pmax"):
        weil_bound_profile(pmax)


def test_generalized_kloosterman_conjugation(seed=12):
    rng = random.Random(seed)
    M = 31
    for _ in range(60):
        k = rng.randrange(1, M - 1)
        chi = character(M, k)
        r = rng.randrange(1, M)
        n = rng.randrange(1, M)
        lhs = generalized_kloosterman(chi, r, n).conjugate()
        rhs = generalized_kloosterman(chi.conjugate(), M - r, M - n)
        assert abs(lhs - rhs) < 1e-9


def test_frak_k_exact_case():
    for M in (5, 13, 31):
        for k in range(1, M - 1):
            chi = character(M, k)
            for r in (1, 2, M - 1):
                res = frak_k(chi, r, 1, M)
                closed = frak_k_closed_form(chi, r, 1, M)
                assert isinstance(closed, complex)
                target = -chi.conjugate()(r)
                assert abs(res - target) < 1e-10
                assert abs(closed - target) < 1e-12


def test_frak_k_generic_has_no_closed_form():
    chi = character(11, 2)
    assert frak_k_closed_form(chi, 1, 1, 3) is None
    assert abs(frak_k(chi, 1, 1, 3)) <= 10.0 * math.sqrt(11)


def test_frak_k_rejects_bad_ell():
    with pytest.raises(EllNotCoprime):
        frak_k(character(11, 1), 1, 22, 5)


def test_frak_c_closed_forms_match_brute(seed=13):
    rng = random.Random(seed)
    for M in (5, 7, 11):
        for k in (1, (M - 1) // 2):
            chi = character(M, k)
            for _ in range(40):
                alpha = rng.randrange(1, M)
                beta = rng.randrange(1, M)
                r1 = rng.randrange(1, M)
                # case routing: multiples of M, the shifted-diagonal class,
                # and the inverted-pair class
                r2 = rng.randrange(1, M)
                n_cases = [0]
                n2 = (beta * mod_inverse(r1, M) - alpha * mod_inverse(r2, M)) % M
                if n2 != 0:
                    n_cases.append(n2)
                for n in n_cases:
                    closed = frak_c_closed_form(chi, r1, r2, alpha, beta, n)
                    assert closed is not None
                    brute = frak_c(chi, r1, r2, alpha, beta, n)
                    assert abs(closed - brute) < 1e-9
                n3 = rng.randrange(1, M)
                r1c = mod_inverse(n3, M) * beta % M
                r2c = (-mod_inverse(n3, M) * alpha) % M
                if r1c and r2c:
                    closed = frak_c_closed_form(chi, r1c, r2c, alpha, beta, n3)
                    assert closed is not None
                    brute = frak_c(chi, r1c, r2c, alpha, beta, n3)
                    assert abs(closed - brute) < 1e-9


def test_frak_c_quadratic_inverted_pair_constant():
    # the quadratic inverted-pair class carries the full unit count minus the
    # excluded summand: M - 2 (verified by enumeration at every small prime)
    for M in (5, 7, 11, 13):
        chi = character(M, (M - 1) // 2)
        n, alpha, beta = 1, 1, 1
        r1 = mod_inverse(n, M) * beta % M
        r2 = (-mod_inverse(n, M) * alpha) % M
        brute = frak_c(chi, r1, r2, alpha, beta, n)
        base = chi(mod_inverse(n, M) * r2 * beta)
        assert abs(brute - base * (M - 2)) < 1e-9


def test_frak_c_generic_returns_none():
    chi = character(11, 3)
    assert frak_c_closed_form(chi, 1, 2, 3, 4, 5) is None


def test_frak_c_rejects_noncoprime_alpha_beta():
    with pytest.raises(AlphaBetaNotCoprime):
        frak_c(character(11, 1), 1, 1, 11, 1, 2)


def test_fourier_expansion_identity():
    for M in (5, 13):
        for k in (1, 2, M - 2):
            chi = character(M, k)
            for a in range(M):
                assert abs(fourier_expansion(chi, a) - chi(a)) < 1e-10


def test_alpha_factorization(seed=14):
    rng = random.Random(seed)
    for p, M in [(5, 7), (7, 11), (3, 13)]:
        for _ in range(25):
            k = rng.randrange(1, M - 1)
            r = rng.choice([x for x in range(1, M) if x % p])
            ell = rng.randrange(1, p)
            n = rng.randrange(0, p * M)
            assert alpha_factorization_check(character(M, k), p, r, ell, n)


def test_alpha_factorization_rejects_p_equal_M():
    with pytest.raises(ParameterConflict):
        alpha_factorization_check(character(11, 1), 11, 1, 1, 1)


def test_sqrt_cancellation_profile_deterministic():
    a = sqrt_cancellation_profile("kloosterman", 101, 200, seed=3)
    b = sqrt_cancellation_profile("kloosterman", 101, 200, seed=3)
    assert a == b
    assert a.max_ratio <= 10.0
    assert a.mean_ratio <= a.max_ratio


def test_sqrt_cancellation_families():
    for fam in ("kloosterman", "generalized_kloosterman", "frak_k", "frak_c"):
        prof = sqrt_cancellation_profile(fam, 101, 60, seed=5)
        assert prof.family == fam
        assert 0 < prof.max_ratio <= 10.0
