"""Property tests for the trivial delta symbol, the beta-sum rows, Dirichlet
characters, Gauss and Kloosterman sums, the frak_k/frak_c closed-form routing,
unit residues, sweep CSV lines and Fourier duals."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deltasums.characters import character, enumerate_characters
from deltasums.expsums import (
    _csum,
    frak_c,
    frak_c_closed_form,
    frak_k,
    frak_k_closed_form,
    gauss_sum,
    kloosterman_sum,
    trivial_delta,
)
from deltasums.identities import _beta_row
from deltasums.lfunctions import SweepRecord
from deltasums.modular import divisors, prime_modulus, primes_in, unit_residues
from deltasums.transforms import bump_window, fourier_dual, plateau_window

BOUND = 10**6
PROPERTY = settings(max_examples=200, deadline=None, database=None)


@st.composite
def delta_arguments(draw):
    """(n, m, q) with q <= 3000 and |n|, |m| <= 10^6; n = m (mod q) half the time."""
    q = draw(st.integers(1, 3000))
    m = draw(st.integers(-BOUND, BOUND))
    if draw(st.booleans()):
        n = m + q * draw(st.integers(-((BOUND + m) // q), (BOUND - m) // q))
    else:
        n = draw(st.integers(-BOUND, BOUND))
    return n, m, q


@PROPERTY
@given(delta_arguments())
def test_trivial_delta_is_the_congruence_indicator(args):
    n, m, q = args
    expected = 1.0 if (n - m) % q == 0 else 0.0
    assert abs(trivial_delta(n, m, q) - expected) < 1e-10


@PROPERTY
@given(st.integers(1, 3000), st.lists(st.integers(-BOUND, BOUND), min_size=1, max_size=40), st.data())
def test_trivial_delta_on_an_array_is_its_scalar_calls(q, ns, data):
    m = data.draw(st.integers(-BOUND, BOUND))
    got = trivial_delta(np.array(ns), m, q)
    assert got.shape == (len(ns),) and got.dtype == np.complex128
    single = np.array([trivial_delta(n, m, q) for n in ns])
    assert np.array_equal(got.view(np.uint64), single.view(np.uint64))
    flipped = trivial_delta(m, np.array(ns), q)
    assert np.array_equal(flipped, np.array([trivial_delta(m, n, q) for n in ns]))


non_integers = st.one_of(
    st.floats().filter(lambda x: not x.is_integer()),
    st.fractions().filter(lambda x: x.denominator != 1),
    st.decimals(-BOUND, BOUND, places=3).filter(lambda x: x != x.to_integral_value()),
)


@PROPERTY
@given(non_integers, st.integers(0, 2))
def test_trivial_delta_refuses_any_non_integer(x, position):
    args = [7, 2, 5]
    args[position] = x
    with pytest.raises((TypeError, ValueError)):
        trivial_delta(*args)



@PROPERTY
@given(st.sampled_from(primes_in(5, 200)), st.data())
def test_characters_are_orthogonal_and_multiplicative(M, data):
    table = np.vstack([chi.value_table() for chi in enumerate_characters(M)])
    # rows: sum_n chi(n) is M - 1 for the principal character, else 0
    rows = table.sum(axis=1)
    assert abs(rows[0] - (M - 1)) < 1e-12 and np.abs(rows[1:]).max() < 1e-12
    # columns: sum_chi chi(n) is M - 1 at n = 1, else 0
    cols = table.sum(axis=0)
    assert abs(cols[1] - (M - 1)) < 1e-12 and np.abs(np.delete(cols, 1)).max() < 1e-12
    chi = character(M, data.draw(st.integers(0, M - 2)))
    a, b = (data.draw(st.integers(-BOUND, BOUND)) for _ in range(2))
    assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12


@PROPERTY
@given(st.sampled_from([5, 7, 11, 13]), st.sampled_from([2, 3, 5]), st.data())
def test_beta_row_is_the_beta_sum(M, p, data):
    """Against the definition: sum over beta mod q = [c, M] of
    chi(beta) e(-alpha beta ell / c) e(rhat beta / q), one term at a time."""
    chi = character(M, data.draw(st.integers(1, M - 2)))
    c = data.draw(st.sampled_from(divisors(p * M)))
    alpha = data.draw(st.integers(1, c).filter(lambda a: math.gcd(a, c) == 1))
    ell = data.draw(st.integers(0, 50))
    rhat = data.draw(st.integers(-3 * p * M, 3 * p * M))
    q = c * M // math.gcd(c, M)
    want = sum(
        chi(beta) * np.exp(2j * np.pi * (-alpha * beta * ell / c + rhat * beta / q))
        for beta in range(q)
    )
    got = _beta_row(chi, q)[(rhat - alpha * ell * (q // c)) % q]
    assert abs(got - want) < 1e-11 * q


def _gauss_sum_brute(chi) -> complex:
    """sum_y chi(y) e(y/M) one term per unit y: the combined angle
    k dlog(y)/(M-1) + y/M reduced exactly over M(M-1), then exponentiated."""
    M = chi.M
    order = M - 1
    y = np.arange(1, M, dtype=np.int64)
    den = M * order
    num = (chi.index * prime_modulus(M)[1:] * M + y * order) % den
    return _csum(np.exp(2j * np.pi * (num / den)))


gauss_characters = st.sampled_from(primes_in(5, 1000)).flatmap(
    lambda M: st.tuples(st.just(M), st.integers(1, M - 2))
)


@PROPERTY
@given(gauss_characters)
@example((997, 498))
@example((5, 1))
def test_gauss_sum_is_the_definition_sum(character_key):
    M, k = character_key
    chi = character(M, k)
    assert abs(gauss_sum(chi) - _gauss_sum_brute(chi)) < 1e-12 * math.sqrt(M)


@PROPERTY
@given(st.integers(1, 400), st.integers(-BOUND, BOUND), st.integers(-BOUND, BOUND))
@example(12, 5, 7)
@example(25, 10, 3)
def test_kloosterman_is_symmetric_and_scales(c, a, b):
    """S(a, b; c) = S(b, a; c) by x -> xbar, and S(a, b; c) = S(1, ab; c) by
    x -> a x when gcd(a, c) = 1, prime or composite c. Both substitutions
    permute the integer phases, so the table entries summed are the same
    multiset and the correctly rounded sums agree exactly."""
    value = kloosterman_sum(a, b, c)
    assert value == kloosterman_sum(b, a, c)
    if math.gcd(a, c) == 1:
        assert value == kloosterman_sum(1, a * b, c)


def units_mod(M):
    return st.integers(-BOUND, BOUND).filter(lambda x: x % M)


@PROPERTY
@given(st.sampled_from(primes_in(5, 60)), st.data())
def test_frak_k_closed_form_routing(M, data):
    """A closed form exactly when M | n and gcd(r, M) = 1, equal to the brute sum."""
    chi = character(M, data.draw(st.integers(1, M - 2)))
    r = data.draw(st.integers(-BOUND, BOUND))
    ell = data.draw(units_mod(M))
    n = data.draw(st.integers(-BOUND, BOUND))
    if data.draw(st.booleans()):
        n = M * data.draw(st.integers(-50, 50))
    closed = frak_k_closed_form(chi, r, ell, n)
    assert (closed is not None) == (n % M == 0 and r % M != 0)
    if closed is not None:
        assert abs(closed - frak_k(chi, r, ell, n)) < 1e-9


@PROPERTY
@given(
    st.sampled_from(primes_in(5, 60)),
    st.sampled_from(["M | n", "diagonal", "inverted pair", "any"]),
    st.data(),
)
def test_frak_c_closed_form_is_the_brute_sum_on_every_routed_class(M, route, data):
    """Each class of frak_c_closed_form's routing has a closed form, and any
    closed form equals the brute sum."""
    chi = character(M, data.draw(st.integers(1, M - 2)))
    r1, r2, alpha, beta = (data.draw(units_mod(M)) for _ in range(4))
    n = data.draw(st.integers(-BOUND, BOUND))
    if route == "M | n":
        n = M * data.draw(st.integers(-50, 50))
    elif route == "diagonal":
        n = (beta * pow(r1, -1, M) - alpha * pow(r2, -1, M)) % M
        assume(n != 0)
    elif route == "inverted pair":
        assume(n % M != 0)
        nbar = pow(n, -1, M)
        r1, r2 = nbar * beta % M, -nbar * alpha % M
    closed = frak_c_closed_form(chi, r1, r2, alpha, beta, n)
    assert closed is not None or route == "any"
    if closed is not None:
        assert abs(closed - frak_c(chi, r1, r2, alpha, beta, n)) < 1e-9


@PROPERTY
@given(st.integers(1, 5000))
@example(1)
def test_unit_residues_are_the_gcd_units(c):
    got = unit_residues(c)
    want = np.array([a for a in range(c) if math.gcd(a, c) == 1], dtype=np.int64)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert np.array_equal(got, want)


# signed zeros, subnormals, the smallest normal, infinities and nan
@PROPERTY
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.5e-320)
@example(2.2250738585072014e-308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_percent_15g_is_format_15g(x):
    assert "%.15g" % x == format(x, ".15g")


@PROPERTY
@given(
    st.integers(5, 10**4),
    st.integers(0, 10**4),
    st.sampled_from(["dirichlet", "divisor", "delta_form"]),
    st.complex_numbers(),
    st.floats(),
    st.floats(),
)
def test_csv_line_is_the_fstring_line(M, k, kind, v, exponent, ratio):
    record = SweepRecord(M, k, kind, v, exponent, ratio)
    try:
        want = (
            f"{M},{k},{kind},{v.real:.15g},{v.imag:.15g},{abs(v):.15g},"
            f"{exponent:.15g},{ratio:.15g}"
        )
    except OverflowError:  # |v| past the largest float: the line raises too
        with pytest.raises(OverflowError):
            record.csv_line()
        return
    assert record.csv_line() == want


@st.composite
def dual_points(draw):
    """Up to 30 x in [-150, 150] in any order, with 0 and a repeated value."""
    xs = draw(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=28))
    return np.array(draw(st.permutations(xs + [0.0, xs[0]])))


windows = st.sampled_from([bump_window(), plateau_window()])


@PROPERTY
@given(windows, dual_points())
def test_fourier_dual_of_an_array_matches_its_points(V, xs):
    got = fourier_dual(V, xs)
    assert got.shape == xs.shape
    single = np.array([fourier_dual(V, float(x)) for x in xs])
    assert np.all(np.abs(got - single) <= 1e-12 * (1.0 + np.abs(single)))


@PROPERTY
@given(windows, dual_points())
def test_fourier_dual_is_hermitian_on_arrays(V, xs):
    assert np.array_equal(fourier_dual(V, -xs), np.conj(fourier_dual(V, xs)))
