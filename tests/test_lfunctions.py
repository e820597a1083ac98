"""Coefficient sequences, L-values, amplifiers and sweeps."""

import gc
import hashlib
import io
import logging
import math
import random
import sys
import threading
import weakref
from functools import cache

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from deltasums import lfunctions
from deltasums.characters import PrincipalCharacterNotAllowed, _character_transform, character
from deltasums.lfunctions import (
    CSV_HEADER,
    DEFAULT_TAU_BOUND,
    DegenerateAmplifier,
    OutOfCacheRange,
    SweepRecord,
    burgess_sweep,
    delta_sequence,
    divisor_sequence,
    hurwitz_zeta,
    l_value_dirichlet,
    l_value_twist,
    load_tau_table,
    make_amplifier,
    monotone_envelope,
    ramanujan_tau_table,
    save_tau_table,
    smoothed_sum,
    write_sweep_csv,
)
from deltasums.lfunctions import (
    _square_truncated,
    _tau_table_is_valid,
    _twist_values_all,
)
from deltasums.transforms import bump_window

import oracles
from oracles import class_vector, smoothed_row, smoothed_value

# q-expansion of Delta, Hecke-normalized later; classical table
TAU_KNOWN = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


@pytest.fixture(scope="module")
def div_seq():
    return divisor_sequence(300_000)


@pytest.fixture(scope="module")
def delta_seq():
    return delta_sequence(300_000, cache=None)


def test_tau_table_known_values():
    # the table is tau(1..bound), no leading pad
    tab = ramanujan_tau_table(10, cache=None)
    assert tab == TAU_KNOWN


def _eta_power(exponent: int, degree: int) -> list[int]:
    """prod (1 - q^m)^exponent, degrees 0..degree-1, one factor at a time."""
    poly = [1] + [0] * (degree - 1)
    for m in range(1, degree):
        for _ in range(exponent):
            for i in range(degree - 1, m - 1, -1):
                poly[i] -= poly[i - m]
    return poly


def test_tau_table_matches_naive_eta_product():
    degree = 300
    assert ramanujan_tau_table(degree, cache=None) == _eta_power(24, degree)


def test_tau_table_matches_naive_eta_product_at_every_small_bound():
    # one-digit slots and, at bound 1, a one-term Jacobi cube
    eta24 = _eta_power(24, 40)
    for bound in range(1, 41):
        assert ramanujan_tau_table(bound, cache=None) == eta24[:bound]


@pytest.mark.parametrize("margin", [0, 1])
def test_tau_build_raises_rather_than_wraps(monkeypatch, margin):
    # the third int64 product's guard is max|J^3| * sum|c_k|; at that limit
    # the build raises, one above it the build is exact
    bound = 60
    weight = sum(2 * k + 1 for k in range(bound) if k * (k + 1) // 2 < bound)
    limit = max(map(abs, _eta_power(9, bound))) * weight
    monkeypatch.setattr(lfunctions, "_INT64_SUM_LIMIT", limit + margin)
    if margin == 0:
        with pytest.raises(OverflowError, match="overflow int64"):
            ramanujan_tau_table(bound, cache=None)
    else:
        assert ramanujan_tau_table(bound, cache=None) == _eta_power(24, bound)


def test_tau_table_passes_its_exact_checks_at_100k():
    assert _tau_table_is_valid(_tau_table(100_000))


# the Kronecker squaring takes int64 coefficients below 2^62 in absolute value
SQUARE_TOP = 2**62 - 1


@st.composite
def square_inputs(draw):
    """Signed lists with zeros, all-negative lists, and lists of +-top with
    2 n top^2 at or just past a power of ten, where the squares' largest
    coefficients meet the edge of the slot width the rule picks."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["signed", "negative", "edge"]))
    if kind == "signed":
        values = st.one_of(st.just(0), st.integers(-SQUARE_TOP, SQUARE_TOP))
        return draw(st.lists(values, min_size=n, max_size=n))
    if kind == "negative":
        return draw(st.lists(st.integers(-SQUARE_TOP, -1), min_size=n, max_size=n))
    # 10^37 / 2 is the last power-of-ten edge below 2 * SQUARE_TOP^2 at n = 1
    k = draw(st.integers(1, 37))
    top = math.isqrt((10**k - 1) // (2 * n)) + draw(st.integers(0, 1))
    signs = draw(st.lists(st.sampled_from([-1, 0, 1, 1]), min_size=n, max_size=n))
    return [s * top for s in signs]


@settings(max_examples=200, deadline=None, database=None)
@given(square_inputs())
def test_square_truncated_matches_naive_convolution(coeffs):
    naive = [sum(coeffs[i] * coeffs[m - i] for i in range(m + 1)) for m in range(len(coeffs))]
    assert _square_truncated(np.array(coeffs, dtype=np.int64)) == naive


@pytest.mark.parametrize("value", [2**62, -(2**62), -(2**63)])
def test_square_truncated_refuses_coefficients_past_2_62(value):
    with pytest.raises(OverflowError, match="below 2\\^62"):
        _square_truncated(np.array([1, value, -3], dtype=np.int64))


@cache
def _tau_table(bound: int) -> list[int]:
    return ramanujan_tau_table(bound, cache=None)


# sha256 of the table written one value per line, each line ending in a newline
@pytest.mark.parametrize(
    "bound, digest",
    [
        (30_000, "b8a65337bf34f0b893ab6b7cb0da29f120edf74a44ef9d9f174712c389755069"),
        (100_000, "6e61fe4cd8a5d7d3a0ae9d70cbaabc6fcf8f506366de163a1cb27f34eaf39c66"),
    ],
    ids=["30k", "100k"],
)
def test_tau_table_bytes_are_pinned(bound, digest):
    text = "\n".join(map(str, _tau_table(bound))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tau_table_hecke_and_691_relations():
    bound = 5000
    t = [0] + ramanujan_tau_table(bound, cache=None)
    sigma11 = [0] * (bound + 1)
    for d in range(1, bound + 1):
        for n in range(d, bound + 1, d):
            sigma11[n] += d**11
    assert all((t[n] - sigma11[n]) % 691 == 0 for n in range(1, bound + 1))
    for p in sympy.primerange(2, bound + 1):
        assert t[p] ** 2 <= 4 * p**11
        for n in range(1, bound // p + 1):
            lower = p**11 * t[n // p] if n % p == 0 else 0
            assert t[p * n] == t[p] * t[n] - lower, (p, n)


def test_tau_table_refuses_bounds_past_exact_range(tmp_path, monkeypatch):
    def no_build(bound):
        raise AssertionError("the table was built")

    monkeypatch.setattr(lfunctions, "_tau_kronecker", no_build)
    for cache in (None, tmp_path / "tau.txt"):
        with pytest.raises(ValueError, match="tau bound"):
            ramanujan_tau_table(DEFAULT_TAU_BOUND + 1, cache=cache)
    with pytest.raises(ValueError, match="tau bound"):
        delta_sequence(DEFAULT_TAU_BOUND + 1, cache=None)
    assert not (tmp_path / "tau.txt").exists()


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 15, 16, 17, 1000])
def test_divisor_sieve_matches_naive_count(bound):
    naive = [0] + [sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, bound + 1)]
    assert divisor_sequence(bound).lam.tolist() == naive


def _trial_division_count(n: int) -> int:
    return sum(1 if d * d == n else 2 for d in range(1, math.isqrt(n) + 1) if n % d == 0)


def test_divisor_sieve_matches_trial_division_across_the_small_d_split():
    # bounds on either side of _SIEVE_SMALL_D^2, where the first d is taken
    # over the whole array instead of block by block; every count is checked
    small = lfunctions._SIEVE_SMALL_D
    for bound in (small**2 - 1, small**2, (small + 1) ** 2, small**2 + 5000):
        lam = divisor_sequence.__wrapped__(bound).lam
        n = np.arange(bound + 1)
        count = np.zeros(bound + 1, dtype=np.int64)
        for d in range(1, math.isqrt(bound) + 1):
            q, r = np.divmod(n, d)
            count += np.where((r == 0) & (q > d), 2, 0) + ((r == 0) & (q == d))
        assert np.array_equal(lam, count), bound


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(-1, 1))
def test_divisor_sieve_at_block_edges(blocks, offset):
    # bounds at k * _SIEVE_BLOCK + {-1, 0, 1}; _SIEVE_BLOCK = 512^2, so the
    # squares next to each edge fall just inside the blocks on either side
    block = lfunctions._SIEVE_BLOCK
    bound = blocks * block + offset
    lam = divisor_sequence.__wrapped__(bound).lam
    points = {1, bound - 1, bound}
    for edge in range(block, bound + 1, block):
        r = math.isqrt(edge)
        points |= {edge - 1, edge, edge + 1, (r - 1) ** 2, r * r, (r + 1) ** 2}
    for n in sorted(points):
        if 1 <= n <= bound:
            assert lam[n] == _trial_division_count(n), n


# sha256 of the float64 bytes of lam, the layout the digests were first taken in
@pytest.mark.parametrize(
    "bound, digest",
    [
        (1_500_000, "fbfe198fc2f59ea96c58637e65493fbd195e341c5452993afba2e284b9e974ac"),
        (3_000_000, "adf8aa577daf6a1ea4c286016cd9cad5829e6002e70e771147f4aeb317aeb255"),
    ],
    ids=["1.5e6", "3e6"],
)
def test_divisor_sieve_bytes_are_pinned(bound, digest):
    lam = divisor_sequence.__wrapped__(bound).lam
    assert hashlib.sha256(lam.astype(np.float64).tobytes()).hexdigest() == digest


def test_divisor_lam_keeps_the_uint16_counts():
    bound = 1_500_000
    lam = divisor_sequence.__wrapped__(bound).lam
    assert lam.dtype == np.uint16 and lam.nbytes == 2 * (bound + 1)
    assert not lam.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        lam[1] += 1
    n = np.arange(1, 65)
    for seq in (divisor_sequence(64), delta_sequence(64, cache=None)):
        assert seq.values(n).dtype == np.float64
        assert seq.values(7).dtype == np.float64


def test_delta_lam_is_the_float_of_each_tau(monkeypatch):
    # |tau| passes 2^92 below 10^5, past int64 and uint64; each entry must be the
    # correctly rounded float(t), as a per-value cast gives (CI checks all of 10^6)
    bound = 100_000
    tau = _tau_table(bound)
    monkeypatch.setattr(lfunctions, "ramanujan_tau_table", lambda bound, cache: tau)
    lam = delta_sequence(bound, cache=None).lam
    n = np.arange(1, bound + 1, dtype=np.float64)
    expected = np.array([float(t) for t in tau], dtype=np.float64) / n**5.5
    assert lam[0] == 0.0
    assert np.array_equal(lam[1:].view(np.uint64), expected.view(np.uint64))


def test_divisor_sieve_refuses_bounds_past_uint16_counts(monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the bound was refused")

    monkeypatch.setattr(lfunctions, "np", NoArrays())
    with pytest.raises(ValueError, match="uint16"):
        divisor_sequence.__wrapped__(1 << 30)


def test_divisor_coefficients_vs_sympy(div_seq, seed=10):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(1, 300_000)
        assert div_seq.values(n) == int(sympy.divisor_count(n))


def test_lambda_one_is_one(div_seq, delta_seq):
    assert div_seq.values(1) == 1.0
    assert delta_seq.values(1) == 1.0


def test_delta_normalization(delta_seq):
    # lam(n) = tau(n) / n^{11/2}
    assert abs(delta_seq.values(2) - (-24.0) / 2**5.5) < 1e-15
    assert delta_seq.weight == 12


def test_deligne_bound_at_primes(delta_seq):
    for p in sympy.primerange(2, 10_000):
        assert abs(delta_seq.values(p)) <= 2.0


def test_multiplicativity_500_coprime_pairs(div_seq, delta_seq, seed=15):
    rng = random.Random(seed)
    for seq in (div_seq, delta_seq):
        done = 0
        while done < 500:
            m = rng.randrange(2, 500)
            n = rng.randrange(2, 500)
            if math.gcd(m, n) != 1:
                continue
            lhs = seq.values(m * n)
            rhs = seq.values(m) * seq.values(n)
            assert abs(lhs - rhs) < 1e-10
            done += 1


def test_hecke_relation(div_seq, delta_seq, seed=16):
    rng = random.Random(seed)
    for seq in (div_seq, delta_seq):
        for _ in range(120):
            r = rng.randrange(1, 2000)
            ell = int(rng.choice([2, 3, 5, 7, 11, 13]))
            rhs = seq.values(r) * seq.values(ell)
            if r % ell == 0:
                rhs -= seq.values(r // ell)
            assert abs(seq.values(r * ell) - rhs) < 1e-10


@st.composite
def hecke_pairs(draw, bound=30_000):
    """(m, n) with m n <= bound, built as g a and g b so gcd(m, n) is often
    larger than 1."""
    g = draw(st.integers(1, 40))
    a = draw(st.integers(1, bound // (g * g)))
    b = draw(st.integers(1, bound // (g * g * a)))
    return g * a, g * b


@settings(max_examples=300, deadline=None, database=None)
@given(hecke_pairs())
def test_hecke_relation_for_all_pairs(div_seq, delta_seq, pair):
    # lam(m) lam(n) = sum over e | gcd(m, n) of lam(m n / e^2)
    m, n = pair
    es = [e for e in range(1, math.gcd(m, n) + 1) if m % e == 0 and n % e == 0]
    products = [div_seq.values(m * n // (e * e)) for e in es]
    assert div_seq.values(m) * div_seq.values(n) == sum(products)
    terms = [delta_seq.values(m * n // (e * e)) for e in es]
    assert abs(delta_seq.values(m) * delta_seq.values(n) - math.fsum(terms)) <= 1e-12 * (
        1 + math.fsum(map(abs, terms))
    )


def test_coeff_eval_out_of_range(div_seq):
    with pytest.raises(OutOfCacheRange, match=r"n in \[300001, 300001\]"):
        div_seq.values(300_001)
    with pytest.raises(OutOfCacheRange):
        div_seq.values(0)
    # the refusal names the largest n asked for, not only the cache's edge
    with pytest.raises(OutOfCacheRange, match=r"n in \[2, 412345\], outside .* \[1, 300000\]"):
        div_seq.values(np.array([[2, 7], [412_345, 11]]))
    assert div_seq.values(np.array([[1, 2], [3, 4]])).tolist() == [[1.0, 2.0], [2.0, 3.0]]


def test_hurwitz_zeta_against_mpmath():
    mp.mp.dps = 25
    for s in (0.5, 1.5, 2.0):
        for a in (0.1, 0.37, 1.0, 0.99):
            ref = float(mp.zeta(s, a))
            assert abs(hurwitz_zeta(s, a) - ref) < 1e-10
    arr = hurwitz_zeta(0.5, np.array([0.2, 0.4, 0.8]))
    assert arr.shape == (3,)
    assert abs(arr[1] - float(mp.zeta(0.5, 0.4))) < 1e-10


def test_l_value_methods_agree_small_moduli():
    for M in (5, 7, 11):
        row = smoothed_row(None, M)
        for k in range(1, M - 1):
            chi = character(M, k)
            assert abs(l_value_dirichlet(chi) - smoothed_value(row, chi)) < 1e-6


def test_l_value_conjugate_symmetry():
    chi = character(11, 3)
    a = l_value_dirichlet(chi)
    b = l_value_dirichlet(chi.conjugate())
    assert abs(a - b.conjugate()) < 1e-9


def test_character_transform_matches_value_table_dot():
    rng = np.random.default_rng(21)
    for M in (5, 7, 11, 13, 101, 1009):
        v = rng.standard_normal(M)
        got = _character_transform(v, M)
        assert got.shape == (M - 1,)
        for k in range(M - 1):
            ref = np.dot(character(M, k).value_table(), v)
            assert abs(got[k] - ref) <= 1e-12 * (1 + abs(ref))


def test_l_value_quadratic_is_real():
    chi = character(1009, 504)
    assert chi.is_quadratic
    v = l_value_dirichlet(chi)
    assert abs(v.imag) < 1e-6


def test_l_value_rejects_principal():
    with pytest.raises(PrincipalCharacterNotAllowed):
        l_value_dirichlet(character(11, 0))
    with pytest.raises(PrincipalCharacterNotAllowed):
        l_value_twist(divisor_sequence(64), character(11, 0))


def test_twist_divisor_square_mod5(div_seq):
    chi = character(5, 2)
    lhs = smoothed_value(smoothed_row(div_seq, 5), chi)
    rhs = l_value_dirichlet(chi) ** 2
    assert abs(lhs - rhs) < 1e-5
    assert abs(l_value_twist(div_seq, chi) - rhs) < 1e-15


def test_twist_conjugation(delta_seq):
    chi = character(5, 1)
    a = l_value_twist(delta_seq, chi)
    b = l_value_twist(delta_seq, chi.conjugate())
    assert abs(a - b.conjugate()) < 1e-6


def test_twist_refuses_insufficient_cache():
    # the doubling ladder must not return a still-moving value
    small = divisor_sequence(2048)
    with pytest.raises(OutOfCacheRange):
        smoothed_row(small, 101)


def test_smoothed_row_keeps_each_characters_own_ladder():
    # the per-character rule written out: double X from 50 M log M until two
    # consecutive gaps fall under 1e-5, refusing at the cache edge; at this
    # bound mod 41 some characters settle before the edge and some do not
    seq, M = divisor_sequence(3_000_000), 41
    row_at = cache(lambda X: _character_transform(class_vector(seq, M, X), M))

    def ladder(k):
        X = 50.0 * M * math.log(M)
        prev, small = row_at(X)[k], 0
        while math.floor(4.0 * X) <= seq.bound:
            cur = row_at(2.0 * X)[k]
            small = small + 1 if abs(cur - prev) < 1e-5 else 0
            if small == 2:
                return cur
            prev, X = cur, 2.0 * X
        return None

    row = smoothed_row(seq, M)
    returned = 0
    for k in range(1, M - 1):
        ref = ladder(k)
        if ref is None:
            with pytest.raises(OutOfCacheRange, match="mod 41 still moving at the cache edge"):
                smoothed_value(row, character(M, k))
        else:
            assert smoothed_value(row, character(M, k)) == ref
            returned += 1
    assert returned == 33


def test_smoothed_row_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(oracles, "MAX_DOUBLINGS", 1)
    row = smoothed_row(None, 17)
    with pytest.raises(ArithmeticError, match="did not stabilize below 1e-08 within 1 doublings"):
        smoothed_value(row, character(17, 3))


def test_central_values_hold_no_sequence():
    # neither the library's L-value rows nor the test oracle keep a
    # sequence's coefficients alive once divisor_sequence lets go of them
    divisor_sequence.cache_clear()
    seq = divisor_sequence(2_000_000)
    lam = weakref.ref(seq.lam)
    chi = character(5, 1)
    l_value_twist(seq, chi)
    l_value_dirichlet(chi)
    smoothed_row(seq, 5)
    del seq
    divisor_sequence.cache_clear()
    gc.collect()
    assert lam() is None


def test_l_values_take_no_method():
    chi = character(11, 3)
    with pytest.raises(TypeError):
        l_value_dirichlet(chi, "smoothed")
    with pytest.raises(TypeError):
        l_value_twist(divisor_sequence(64), chi, method="smoothed")


def test_sequences_compare_and_hash_by_kind_bound_weight():
    a = divisor_sequence(10)
    assert a == divisor_sequence(10) and hash(a) == hash(divisor_sequence(10))
    rebuilt = lfunctions.CoefficientSequence("divisor", 10, a.lam.copy())
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert divisor_sequence(11) != a


def test_twist_afe_is_independent_of_the_splitting_point(delta_seq, monkeypatch):
    for M in (5, 31, 101, 499):
        rows = []
        for X in (1.0, 1.25):
            monkeypatch.setattr(lfunctions, "_AFE_X", (X, X))
            rows.append(_twist_values_all(delta_seq, M))
        assert np.abs(rows[0] - rows[1])[1:].max() <= 1e-12


def test_twist_afe_forced_zeros(delta_seq):
    # a quadratic character mod M = 3 (mod 4) has tau(chi)^2 = -M, so the
    # root number is -1 and the real central value must vanish
    for M in (103, 499):
        chi = character(M, (M - 1) // 2)
        assert chi.is_quadratic
        assert abs(l_value_twist(delta_seq, chi)) <= 1e-12


def test_twist_afe_matches_converged_smoothed_ladder(delta_seq):
    for M in (5, 7, 13):
        row = smoothed_row(delta_seq, M)
        for k in range(1, M - 1):
            chi = character(M, k)
            assert abs(l_value_twist(delta_seq, chi) - smoothed_value(row, chi)) <= 1e-6


def test_twist_afe_refuses_short_sequence():
    short = delta_sequence(64, cache=None)
    # the AFE mod 101 reads lam(1..1004)
    with pytest.raises(OutOfCacheRange, match=r"n in \[1, 1004\], outside the cached range \[1, 64\]"):
        l_value_twist(short, character(101, 1))


def test_afe_weight_closed_form_matches_incomplete_gamma():
    # every argument the AFE evaluates lies in [0, 50 * 1.25]
    x = np.linspace(0.0, 62.5, 100_001)
    ref = gammaincc(6, x)
    assert np.all(np.abs(lfunctions._afe_weight(x) - ref) <= 1e-14 * ref)
    for t in (0.5, 5.0, 20.0, 40.0, 49.9):
        exact = mp.gammainc(6, t, regularized=True)
        assert abs(lfunctions._afe_weight(np.float64(t)) / exact - 1) < 1e-15


def test_twist_afe_splitting_gap_raises(delta_seq, monkeypatch):
    # a wrong root number breaks the X-independence the row is checked by
    real = lfunctions._gauss_row
    monkeypatch.setattr(lfunctions, "_gauss_row", lambda M: real(M) * 1.01)
    with pytest.raises(ArithmeticError, match="splitting point"):
        lfunctions._twist_values_all(delta_seq, 31)


def test_smoothed_sum_direct_loop(div_seq):
    chi = character(5, 1)
    W = bump_window()
    N = 10.0
    direct = sum(
        div_seq.values(n) * complex(chi.values(np.array([n]))[0]) * W(n / N)
        for n in range(10, 21)
    )
    assert abs(smoothed_sum(div_seq, chi, N, W) - direct) < 1e-12


def test_smoothed_sum_empty_support(div_seq):
    assert smoothed_sum(div_seq, character(5, 1), 0.4, bump_window()) == 0


def test_smoothed_sum_reads_only_the_support():
    # supp W = [1, 2] at N = 20 ends at n = 40: W(41/20) = 0 needs no lam(41)
    chi, W = character(11, 1), bump_window()
    got = smoothed_sum(divisor_sequence(40), chi, 20.0, W)
    assert got == smoothed_sum(divisor_sequence(41), chi, 20.0, W)


def test_make_amplifier_fields(div_seq):
    amp = make_amplifier(div_seq, 3, 7)
    assert amp.ells == (3, 5) and amp.ps == (7, 11, 13)
    assert amp.pstar == 3
    # divisor lam(ell) = 2 so lstar = 4 |ells|
    assert abs(amp.lstar - 4.0 * len(amp.ells)) < 1e-12
    wide = make_amplifier(div_seq, 100, 300)
    assert wide.lstar == 4.0 * len(wide.ells)
    assert 0.1 < wide.lstar * math.log(100) / 100 < 10.0
    assert make_amplifier(div_seq, 2, 7).ells == (2, 3)


def test_make_amplifier_disjointness_overlap(div_seq):
    # dyadic blocks [3,6] and [5,10] collide at 5; the collision must leave
    # the detection set, never the amplifier set
    amp = make_amplifier(div_seq, 3, 5)
    assert amp.ells == (3, 5)
    assert 5 not in amp.ps
    assert set(amp.ells).isdisjoint(amp.ps)


def test_make_amplifier_reads_lambda_only_up_to_its_largest_prime():
    # ells = (3, 5): L* reads lam(3) and lam(5), so a sequence to 5 suffices
    # and one to 4 is refused naming lam(5), not a bound of 2L
    assert make_amplifier(divisor_sequence(5), 3, 7).ells == (3, 5)
    assert make_amplifier(divisor_sequence(8), 3, 7).lstar == 8.0
    with pytest.raises(OutOfCacheRange, match=r"n in \[3, 5\], outside .* \[1, 4\]"):
        make_amplifier(divisor_sequence(4), 3, 7)


def test_make_amplifier_exclude_and_degenerate(div_seq):
    amp = make_amplifier(div_seq, 3, 7, exclude=5)
    assert 5 not in amp.ells and 5 not in amp.ps
    with pytest.raises(DegenerateAmplifier):
        make_amplifier(div_seq, 3.2, 7, exclude=5)


def test_burgess_sweep_dirichlet_shape():
    recs = burgess_sweep("dirichlet", 5, 97)
    assert recs == sorted(recs, key=lambda r: (r.M, r.char_index))
    assert all(np.isfinite(r.ratio) and r.ratio >= 0 for r in recs)
    assert all(r.exponent == 3.0 / 16.0 for r in recs)
    # one record per non-principal character
    assert len(recs) == sum(p - 2 for p in sympy.primerange(5, 98))


def test_burgess_sweep_empty_range():
    assert burgess_sweep("dirichlet", 50, 40) == []


def test_burgess_sweep_limits():
    with pytest.raises(ValueError):
        burgess_sweep("dirichlet", 5, 20_000)
    with pytest.raises(ValueError, match="10000"):
        burgess_sweep("twist", 5, 10_001)
    assert len(burgess_sweep("twist", 590, 600, chars="quadratic")) == 2
    with pytest.raises(ValueError):
        burgess_sweep("maass", 5, 50)
    with pytest.raises(ValueError, match="coefficient kind 'bogus'"):
        burgess_sweep("twist", 24, 28, coeff="bogus")
    for chars in ("abc", 0, "-3"):
        with pytest.raises(ValueError, match="chars must be"):
            burgess_sweep("dirichlet", 24, 28, chars=chars)


def test_burgess_sweep_twist_kinds():
    recs = burgess_sweep("twist", 5, 20, chars="quadratic", coeff="delta_form")
    assert all(r.kind == "delta_form" and r.exponent == 0.375 for r in recs)
    recs2 = burgess_sweep("twist", 5, 20, chars=2, coeff="divisor")
    assert all(r.kind == "divisor" for r in recs2)
    assert {r.char_index for r in recs2} <= {1, 2}


def test_burgess_sweep_coeff_belongs_to_twists():
    for coeff in ("divisor", "delta", "bogus"):
        with pytest.raises(ValueError, match="dirichlet sweep takes no coefficient kind"):
            burgess_sweep("dirichlet", 5, 11, coeff=coeff)
    assert burgess_sweep("twist", 5, 11) == burgess_sweep("twist", 5, 11, coeff="divisor")
    assert {r.kind for r in burgess_sweep("twist", 5, 11)} == {"divisor"}


def test_twist_sweep_divisor_rows_are_dirichlet_squares(div_seq):
    recs = burgess_sweep("twist", 5, 31, seq=div_seq)
    assert len(recs) == sum(p - 2 for p in sympy.primerange(5, 32))
    for r in recs:
        ref = l_value_dirichlet(character(r.M, r.char_index)) ** 2
        assert abs(r.l_value - ref) <= 1e-15 * (1 + abs(ref))


def test_twist_sweep_delta_rows_match_per_character_afe(delta_seq):
    # the AFE written out per character, at X = 1, from value tables and a
    # directly summed Gauss sum
    recs = burgess_sweep("twist", 5, 31, seq=delta_seq)
    assert len(recs) == sum(p - 2 for p in sympy.primerange(5, 32))
    for r in recs:
        chi = character(r.M, r.char_index).value_table()
        n_max = math.floor(50.0 * 1.25 * r.M / (2.0 * math.pi))
        n = np.arange(1, n_max + 1)
        w = delta_seq.lam[n] / np.sqrt(n)
        gauss = np.sum(chi * np.exp(2j * np.pi * np.arange(r.M) / r.M))
        q = w * gammaincc(6, 2.0 * np.pi * n / r.M)  # at X = 1 both halves weigh alike
        ref = np.sum(q * chi[n % r.M]) + gauss**2 / r.M * np.sum(q * np.conj(chi[n % r.M]))
        assert abs(r.l_value - ref) <= 1e-12 * (1 + abs(ref))


def test_sweep_conjugates_exact_and_no_negative_zero():
    recs = burgess_sweep("dirichlet", 5, 199)
    values = {(r.M, r.char_index): r.l_value for r in recs}
    for (M, k), v in values.items():
        assert values[M, M - 1 - k] == v.conjugate()
        assert l_value_dirichlet(character(M, k)) == v
    buf = io.StringIO()
    write_sweep_csv(recs, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert not [row for row in rows if "-0" in row]
    buf = io.StringIO()
    write_sweep_csv(burgess_sweep("dirichlet", 5, 199, chars="quadratic"), buf)
    quadratic = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert len(quadratic) == len(list(sympy.primerange(5, 200)))
    assert all(row[4] == "0" for row in quadratic)


def test_sweep_csv_round_trip(tmp_path):
    recs = burgess_sweep("dirichlet", 5, 31, chars="quadratic")
    out = tmp_path / "sweep.csv"
    write_sweep_csv(recs, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(recs) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 5 and first[2] == "dirichlet"
    # numeric fields parse and reproduce the record
    assert abs(float(first[5]) - abs(recs[0].l_value)) < 1e-12


# sha256 of write_sweep_csv output, byte for byte
SWEEP_PINS = [
    (("dirichlet", 5, 199), {}, 4134, "f48b0ddf1a666f4e21c968701e82dd665d5d621ec05298e0d6677e6e8f911f2d"),
    (("twist", 5, 61), {}, 464, "79b2600e7255cd63a68f92e1efeeb33c0885bc07f5d9aac91506bf5c2e2429ba"),
    (
        ("twist", 5, 31),
        {"coeff": "delta_form"},
        137,
        "66572c733561657cc87f02461712bb492bd674b9917a479cd088c405f45ac16c",
    ),
]


@pytest.mark.parametrize(
    "args, kwargs, rows, digest", SWEEP_PINS, ids=["dirichlet_199", "twist_61", "delta_form_31"]
)
def test_sweep_csv_bytes_are_pinned(tmp_path, args, kwargs, rows, digest):
    recs = burgess_sweep(*args, **kwargs)
    assert len(recs) == rows
    buf = io.StringIO()
    write_sweep_csv(recs, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
    out = tmp_path / "sweep.csv"
    write_sweep_csv(recs, out)
    assert out.read_bytes() == buf.getvalue().encode()


def test_sweep_records_are_immutable_hashable_tuples():
    assert SweepRecord._fields == ("M", "char_index", "kind", "l_value", "exponent", "ratio")
    recs = burgess_sweep("dirichlet", 5, 31, chars=3)
    with pytest.raises(AttributeError):
        recs[0].ratio = 0.0
    again = burgess_sweep("dirichlet", 5, 31, chars=3)
    assert recs == again and list(map(hash, recs)) == list(map(hash, again))
    assert len(set(recs + again)) == len(recs)
    assert recs[0] == tuple(recs[0])


def test_monotone_envelope_of_an_all_character_sweep():
    ms, env = monotone_envelope(burgess_sweep("dirichlet", 5, 31))
    assert ms.dtype == np.int64 and ms.tolist() == [5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert env.dtype == np.float64
    assert env.tolist() == [
        0.5871457196819886,
        0.7960688419194576,
        0.9693005435209434,
        0.9693005435209434,
        1.1322380094470692,
        1.1419999511542567,
        1.3639286496221406,
        1.3639286496221406,
        1.3639286496221406,
    ]


def test_monotone_envelope_nondecreasing():
    recs = burgess_sweep("dirichlet", 5, 199, chars="quadratic")
    ms, env = monotone_envelope(recs)
    assert list(ms) == sorted(set(r.M for r in recs))
    assert np.all(np.diff(env) >= 0)
    assert env[0] == recs[0].ratio


def test_tau_cache_write_failure_is_logged(tmp_path, caplog):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    path = blocker / "tau.txt"  # its parent is a file, so the write fails
    with caplog.at_level(logging.WARNING, logger="deltasums"):
        tab = ramanujan_tau_table(10, cache=path)
    assert tab == TAU_KNOWN
    [record] = caplog.records
    assert record.name == "deltasums" and record.levelno == logging.WARNING
    assert str(path) in record.getMessage()


def test_tau_cache_round_trip(tmp_path):
    path = tmp_path / "tau.txt"
    tab = ramanujan_tau_table(50, cache=None)
    save_tau_table(tab, path)
    loaded = load_tau_table(path)
    assert loaded == tab
    assert load_tau_table(path, bound=30) == tab[:30]
    assert load_tau_table(path, bound=99) is None
    assert load_tau_table(tmp_path / "missing.txt") is None


def test_tau_cache_rejects_garbage(tmp_path):
    bad = tmp_path / "tau.txt"
    bad.write_text("not a header\n1\n2\n")
    assert load_tau_table(bad) is None


def _replace_line(text: str, n: int, value: str) -> str:
    lines = text.split("\n")
    lines[n] = value  # line n holds tau(n); line 0 is the header
    return "\n".join(lines)


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: _replace_line(text, 3, "999"),  # tau(3) = 999
        lambda text: _replace_line(text, 101, str(int(text.split("\n")[101]) + 1)),  # a prime
        lambda text: _replace_line(text, 100, str(int(text.split("\n")[100]) + 1)),  # composite
        lambda text: _replace_line(text, 57, "12x"),  # non-integer line
        lambda text: text[: len(text) // 2],  # truncated mid-line
        lambda text: text.rstrip("\n"),  # last line cut before its newline
    ],
    ids=["tau3", "prime", "composite", "non_integer", "truncated", "no_final_newline"],
)
def test_tau_cache_damage_is_rebuilt(tmp_path, damage):
    path = tmp_path / "tau.txt"
    cold = ramanujan_tau_table(200, cache=None)
    save_tau_table(cold, path)
    path.write_text(damage(path.read_text()))
    assert load_tau_table(path, 200) is None
    assert ramanujan_tau_table(200, cache=path) == cold
    assert load_tau_table(path) == cold
    assert path.read_text().split("\n", 1)[0] == "200"


def test_tau_cache_reads_only_the_wanted_lines(tmp_path):
    # a 200-line cache serves tau(1..150) whatever follows line 150, as long
    # as line 150 itself is whole, and nothing past its last whole line
    path = tmp_path / "tau.txt"
    cold = ramanujan_tau_table(200, cache=None)
    save_tau_table(cold, path)
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:151] + ["12x", "garbage"]))
    assert load_tau_table(path, 150) == cold[:150]
    assert load_tau_table(path, 151) is None
    assert load_tau_table(path) is None
    path.write_text("\n".join(lines[:151]) + "\n")  # 150 whole lines under header 200
    assert load_tau_table(path, 150) == cold[:150]
    assert load_tau_table(path, 151) is None
    assert load_tau_table(path) is None
    path.write_text("\n".join(lines[:151]))  # line 150 cut before its newline
    assert load_tau_table(path, 150) is None
    assert load_tau_table(path, 149) == cold[:149]


def test_tau_cache_readers_never_see_a_partial_write(tmp_path):
    path = tmp_path / "tau.txt"
    tab = ramanujan_tau_table(3000, cache=None)
    save_tau_table(tab, path)
    seen = []
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            save_tau_table(tab, path)

    def reader():
        for _ in range(40):
            try:
                seen.append(load_tau_table(path) == tab)
            except ValueError:
                seen.append(False)

    threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(3)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads[1:]:
            th.join(timeout=60)
        stop.set()
        threads[0].join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert seen == [True] * 120
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tau.txt"]


def test_tau_cache_auto_is_refused(tmp_path, monkeypatch):
    # "auto" names no default location and must not become a file named auto
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="auto"):
        ramanujan_tau_table(10, cache="auto")
    with pytest.raises(ValueError, match="auto"):
        delta_sequence(64, cache="auto")
    assert list(tmp_path.iterdir()) == []
