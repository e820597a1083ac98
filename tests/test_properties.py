"""Property tests for the trivial delta symbol."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasums.expsums import trivial_delta

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

