"""Property tests for the trivial delta symbol, Dirichlet characters and
Fourier duals."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasums.characters import character, enumerate_characters
from deltasums.expsums import trivial_delta
from deltasums.modular import primes_in
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
