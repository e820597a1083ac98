"""Windows, quadrature and the Fourier and Voronoi transforms."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
import sympy
from scipy.special import jv, y0

import deltasums
from deltasums import cli, transforms
from deltasums.transforms import (
    DomainError,
    UnsupportedCoefficientKind,
    adaptive_quadrature,
    bump_window,
    decay_check,
    fourier_dual,
    panel_quadrature,
    plateau_window,
    voronoi_main_term,
    voronoi_transform_batch,
)
from deltasums.transforms import (
    _bessel_j,
    _bessel_k0,
    _bessel_y0,
    _kernel_cycles,
    _panel_nodes,
    _rule,
)


def test_window_supports_and_smooth_vanishing():
    W = bump_window()
    V = plateau_window()
    assert W.support == (1.0, 2.0)
    assert V.support == (0.5, 3.0)
    for win in (W, V):
        lo, hi = win.support
        assert win(lo) == 0.0 and win(hi) == 0.0
        assert win(lo - 0.1) == 0.0 and win(hi + 0.1) == 0.0
        assert win(0.5 * (lo + hi)) > 0.0
    # plateau is identically 1 on [1, 2]
    for x in np.linspace(1.0, 2.0, 11):
        assert abs(V(float(x)) - 1.0) < 1e-14


def test_window_mass_against_quadrature():
    for win in (bump_window(), plateau_window()):
        lo, hi = win.support
        ref = panel_quadrature(lambda x: win(x), lo, hi, panels=64, order=12)
        assert abs(win.mass() - ref) < 1e-9


def test_window_vector_and_scalar_agree():
    W = bump_window()
    xs = np.linspace(0.5, 2.5, 41)
    vec = W(xs)
    for i, x in enumerate(xs):
        assert vec[i] == W(float(x))


def _sympy_windows():
    """Closed forms of W and V, piece by piece, as (lo, hi, expr) in x."""
    x = sympy.Symbol("x")
    t = 2 * x - 3
    f = lambda s: sympy.exp(-1 / s)
    step = lambda s: f(s) / (f(s) + f(1 - s))
    bump = [(1.0, 2.0, sympy.exp(1 - 1 / (1 - t**2)))]
    plateau = [(0.5, 1.0, step(2 * x - 1)), (2.0, 3.0, step(3 - x))]
    return x, ((bump_window(), bump), (plateau_window(), plateau))


def test_window_jets_match_sympy_derivatives():
    x, windows = _sympy_windows()
    for win, pieces in windows:
        for order in range(5):
            tol = 1e-12 * win.derivative_bound(order)
            for lo, hi, expr in pieces:
                grid = np.linspace(lo, hi, 403)[1:-1]
                ref = sympy.lambdify(x, sympy.diff(expr, x, order), modules="numpy")(grid)
                assert np.max(np.abs(win(grid, order) - ref)) < tol
    # the plateau's middle piece is the constant 1
    grid = np.linspace(1.0, 2.0, 11)
    assert all(np.all(plateau_window()(grid, order) == 0.0) for order in range(1, 5))


def _run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports deltasums from this
    checkout; return its standard output."""
    src = str(Path(deltasums.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_runtime_never_imports_sympy():
    _run_fresh(
        "import sys\n"
        "import deltasums\n"
        "from deltasums.transforms import bump_window, plateau_window, voronoi_transform_batch\n"
        "bump_window()(1.5, 4)\n"
        "plateau_window()(0.7, 4)\n"
        "voronoi_transform_batch('divisor', 1, bump_window(), [2.0])\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )


_VERIFY = ["verify", "--suite=appendix,pipeline,transforms"]


def test_import_loads_no_scipy(tmp_path, capsys):
    # with every scipy import refused, verify and both kinds of sweep run and
    # verify prints the lines of an unrestricted run
    sweeps = [
        ["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=31", f"--out={tmp_path / 'd.csv'}"],
        ["sweep", "--kind=twist", "--coeff=delta", "--pmin=5", "--pmax=31"]
        + [f"--out={tmp_path / 't.csv'}"],
    ]
    lines = _run_fresh(
        "import importlib.abc, sys\n"
        "class Refuse(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "from deltasums import cli\n"
        f"for argv in {[_VERIFY] + sweeps!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
    ).splitlines()
    assert cli.main(_VERIFY) == 0
    assert lines == capsys.readouterr().out.splitlines()
    assert len(lines) == 27
    assert all((tmp_path / name).stat().st_size > 0 for name in ("d.csv", "t.csv"))


def test_derivative_bounds_finite_and_growing():
    W = bump_window()
    bounds = [W.derivative_bound(j) for j in range(5)]
    assert all(np.isfinite(b) and b > 0 for b in bounds)
    # C-infinity bump derivatives grow quickly in the order
    assert bounds[4] > bounds[1]


def test_scaled_and_normalized_window():
    # scaled multiplies values, not the argument
    W = bump_window()
    S = W.scaled(2.0)
    assert S.support == W.support
    for x in (1.2, 1.5, 1.9):
        assert abs(S(x) - 2.0 * W(x)) < 1e-14
    assert abs(W.normalized().mass() - 1.0) < 1e-12


def test_panel_quadrature_polynomial_exactness():
    # order-12 Gauss-Legendre integrates degree-7 exactly on one panel
    val = panel_quadrature(lambda x: x**7, 0.0, 1.0, panels=1, order=12)
    assert abs(val - 0.125) < 1e-13


def test_adaptive_quadrature_oscillatory():
    val = adaptive_quadrature(lambda x: np.cos(40.0 * x), 0.0, 1.0, tol=1e-12)
    assert abs(val - math.sin(40.0) / 40.0) < 1e-11


def test_adaptive_quadrature_raises_when_unconverged():
    # a jump inside a panel caps the rule at first order: 2^16 panels miss 1e-13
    with pytest.raises(ArithmeticError):
        adaptive_quadrature(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-13)


def _extended_phase_sums(A, rule, lo, hi, f):
    """_phase_sums over the same float64 nodes and weights, with the phases
    A u, their cos and sin and the sums taken in np.longdouble; and the
    scale sum |w f| of each column."""
    panels, order = rule
    pts, wts = _panel_nodes(lo, hi, panels, order)
    F = wts[:, None] * f(pts.reshape(panels, order)).reshape(panels * order, -1)
    phase = np.multiply.outer(A.astype(np.longdouble), pts.astype(np.longdouble))
    FL = F.astype(np.longdouble)
    ref = (np.cos(phase) @ FL).astype(float) + 1j * (np.sin(phase) @ FL).astype(float)
    return ref, np.abs(F).sum(axis=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
@pytest.mark.parametrize(
    "A, rule, hankel",
    [
        # _rule's minimum of 8 panels, slopes over three row chunks
        (np.linspace(-60.0, 60.0, 4001), (8, 12), False),
        # 49 = 7 * 7 panels fill the coarse x fine product; 50 leave a tail of 6
        (np.linspace(-400.0, 400.0, 3001), (49, 12), False),
        (np.linspace(-400.0, 400.0, 3001), (50, 12), False),
        # _hankel_block's 13 columns I_m at y up to 28000, over eight row chunks
        (np.linspace(-2100.0, 2100.0, 801), (143, 12), True),
    ],
    ids=["min8", "square49", "tail50", "hankel143"],
)
def test_phase_sums_match_extended_precision(A, rule, hankel):
    assert 0.0 in A and A.min() < 0.0
    if hankel:
        W, m = bump_window(), np.arange(13)
        lo, hi = 1.0, math.sqrt(2.0)
        f = lambda u: (2.0 * np.sqrt(u) * W(u * u))[..., None] * u[..., None] ** -m
    else:
        V = plateau_window()
        lo, hi = V.support
        f = lambda u: V(u)[..., None]
    got = transforms._phase_sums(A, rule, lo, hi, f)
    assert A.size > 2 * transforms._CHUNK // (rule[0] + rule[1] * got.shape[1])
    ref, scale = _extended_phase_sums(A, rule, lo, hi, f)
    # the rounding of the float64 phase A u bounds the agreement
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    # real samples: the sums at -A are the exact conjugates
    assert np.array_equal(transforms._phase_sums(-A, rule, lo, hi, f), np.conj(got))


def test_fourier_dual_at_zero_is_mass():
    V = plateau_window()
    assert abs(fourier_dual(V, 0.0) - V.mass()) < 1e-10


def test_fourier_dual_hermitian_symmetry():
    V = plateau_window()
    a = fourier_dual(V, 1.3)
    b = fourier_dual(V, -1.3)
    assert abs(a - b.conjugate()) < 1e-12


def test_voronoi_transform_batch_matches_scalar():
    W = bump_window()
    ys = np.array([0.04, 0.3, 1.7, 9.0, 55.0])
    for kind, sign in (("delta_form", 1), ("divisor", 1), ("divisor", -1)):
        batch = voronoi_transform_batch(kind, sign, W, ys)
        single = np.array([voronoi_transform_batch(kind, sign, W, [y])[0] for y in ys])
        assert np.max(np.abs(batch - single)) < 1e-8


def _full_matrix_batch(kernel, W, ys, switch=float("inf")):
    """The batch with each geometric block's kernel matrix built whole, and
    the same rule applied to |kernel|: the scale of each value's rounding.

    A block whose smallest kernel argument is at least `switch` takes the
    rule laid over u = sqrt(x), integrand 2u W(u^2) k(4 pi sqrt(y) u); any
    other block the rule over x itself.
    """
    out, scale = np.empty_like(ys), np.empty_like(ys)
    order_idx = np.argsort(ys, kind="stable")
    sorted_y = ys[order_idx]
    lo, hi = W.support
    start = 0
    while start < sorted_y.size:
        stop = int(np.searchsorted(sorted_y, 4.0 * sorted_y[start], side="right"))
        block = sorted_y[start:stop]
        rule = _rule(_kernel_cycles(W, block[-1]), hi - lo, None, 1.0)
        if 4.0 * np.pi * np.sqrt(block[0] * lo) >= switch:
            u, wts = _panel_nodes(np.sqrt(lo), np.sqrt(hi), *rule)
            xs, weighted = u * u, 2.0 * u * W(u * u) * wts
        else:
            xs, wts = _panel_nodes(lo, hi, *rule)
            weighted = W(xs) * wts
        args = 4.0 * np.pi * np.sqrt(np.multiply.outer(block, xs))
        values = kernel(args)
        out[order_idx[start:stop]] = values @ weighted
        scale[order_idx[start:stop]] = np.abs(values) @ weighted
        start = stop
    return out, scale


@pytest.mark.parametrize(
    "kind, kernel",
    [
        ("delta_form", lambda z: 2.0 * np.pi * jv(11, z)),
        ("divisor", lambda z: -2.0 * np.pi * y0(z)),
    ],
)
def test_voronoi_batch_chunks_match_full_matrix_in_bounded_memory(kind, kernel):
    # shuffled y in (0, 1500]: the largest blocks span dozens of row chunks
    W = bump_window()
    ys = np.random.default_rng(7).permutation(np.arange(1, 3001) * 0.5)
    ref, scale = _full_matrix_batch(kernel, W, ys)
    voronoi_transform_batch(kind, 1, W, ys[:4])  # window and rule caches warm
    tracemalloc.start()
    try:
        got = voronoi_transform_batch(kind, 1, W, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # relative to the integral of |kernel * W|: the small transforms at large y
    # are cancellations of O(1) terms and carry their rounding
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "kind, weight", [("delta_form", 4), ("delta_form", 12), ("delta_form", 24), ("divisor", 0)]
)
def test_hankel_blocks_match_the_kernel_matrix_on_the_u_rule(kind, weight):
    # geometric blocks of y in [0.05, 3000] start near 0.05 * 4^j, on both
    # sides of the switch to Hankel's expansion at the smallest argument 50
    # (y = 15.8)
    W = bump_window()
    if kind == "divisor":
        kernel = lambda z: -2.0 * np.pi * y0(z)
    else:
        nu, front = weight - 1, 2.0 * np.pi * (-1.0) ** (weight // 2)
        kernel = lambda z: front * jv(nu, z)
    ys = np.geomspace(0.05, 3000.0, 500)
    ref, scale = _full_matrix_batch(kernel, W, ys, switch=50.0)
    got = voronoi_transform_batch(SimpleNamespace(kind=kind, weight=weight), 1, W, ys)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("weight", [4, 12, 24])
def test_blocks_from_argument_50_skip_the_kernel_matrix(weight, monkeypatch):
    W = bump_window()
    seen = []
    matrix_block = transforms._matrix_block

    def record(kernel, W, ys, rule):
        seen.append(4.0 * math.pi * math.sqrt(ys[0] * W.support[0]))
        return matrix_block(kernel, W, ys, rule)

    monkeypatch.setattr(transforms, "_matrix_block", record)
    g = SimpleNamespace(kind="delta_form", weight=weight)
    voronoi_transform_batch(g, 1, W, np.geomspace(0.05, 3000.0, 500))
    assert seen and max(seen) < 50.0


# arguments on both sides of Hankel's expansion at 50 and of K_0's zero at 745
_PIN_Z = np.concatenate([np.geomspace(0.05, 900.0, 40), [49.9, 50.0, 50.1, 744.9, 745.0, 745.1]])


def _mp_values(f) -> np.ndarray:
    with mp.workdps(40):
        return np.array([float(f(mp.mpf(z))) for z in _PIN_Z])


@pytest.mark.parametrize("nu", [0, 3, 11, 23])
def test_bessel_j_pinned_to_mpmath(nu):
    ref = _mp_values(lambda z: mp.besselj(nu, z))
    envelope = np.minimum(1.0, np.sqrt(2.0 / (np.pi * _PIN_Z)))
    assert np.all(np.abs(_bessel_j(nu, _PIN_Z) - ref) <= 1e-14 * envelope)


def test_bessel_y0_and_k0_pinned_to_mpmath():
    y_ref = _mp_values(lambda z: mp.bessely(0, z))
    envelope = np.minimum(1.0, np.sqrt(2.0 / (np.pi * _PIN_Z)))
    envelope *= np.maximum(1.0, np.abs(np.log(_PIN_Z)))
    assert np.all(np.abs(_bessel_y0(_PIN_Z) - y_ref) <= 1e-14 * envelope)
    k_ref = _mp_values(lambda z: mp.besselk(0, z))
    k_err = np.abs(_bessel_k0(_PIN_Z) - k_ref)
    assert np.all(k_err <= 1e-15 * np.maximum(1.0, k_ref))
    # Hankel's expansion keeps the tiny values relatively exact as well
    far = (_PIN_Z >= 50.0) & (_PIN_Z < 745.0)
    assert np.all(k_err[far] <= 1e-14 * k_ref[far])


def test_voronoi_transform_matches_fine_fixed_rule():
    # the default rule against the same rule at eight times the panels
    W = bump_window()
    for kind, sign in (("delta_form", 1), ("divisor", 1), ("divisor", -1)):
        for y in np.geomspace(0.01, 200.0, 20):
            ref = voronoi_transform_batch(kind, sign, W, [y], panel_scale=8.0)[0]
            got = voronoi_transform_batch(kind, sign, W, [y])[0]
            assert abs(got - ref) < 1e-11 * (1.0 + abs(ref))


@pytest.mark.parametrize("kind", ["delta_form", "divisor"])
def test_default_rule_matches_fine_rule_on_dual_sums(kind):
    # every 7th plus-side dual term of the criterion-6 sums (a, c, N) =
    # (1, 3, 40) and (2, 5, 60), y up to 26667, where the oscillations and not
    # the floor set the panel count; per term, against four times the panels
    W = bump_window()
    for c, N in ((3, 40.0), (5, 60.0)):
        ys = np.arange(1, 6001, 7) * (N / c**2)
        got = voronoi_transform_batch(kind, 1, W, ys)
        ref = voronoi_transform_batch(kind, 1, W, ys, panel_scale=4.0)
        assert np.max(np.abs(got - ref)) <= 1e-13


def test_explicit_order_rule_is_the_refinement_sequence():
    # three panels per oscillation, whatever the width: the sequence the
    # convergence checks rate
    for cycles in (0.0, 0.4, 3.0, 57.5, 1234.0):
        for q in (1, 2, 3, 12):
            for s in (0.5, 1.0, 2.0, 4.0):
                panels = max(8, math.ceil(3 * cycles * s + 8 * s))
                assert _rule(cycles, 2.5, q, s) == (panels, q)


def test_rule_floor_counts_per_unit_width():
    # the plateau window is 2.5 wide: 80 panels give its mass 7/4 to rounding
    assert abs(fourier_dual(plateau_window(), 0.0) - 1.75) <= 1e-15
    assert _rule(0.0, 1.0, None, 1.0) == (32, 12)
    assert _rule(0.0, 2.5, None, 1.0) == (80, 12)


def test_fourier_dual_matches_eight_times_the_panels():
    # the accuracy the module docstring states for x in [0, 100]
    V = plateau_window()
    lo, hi = V.support
    worst = 0.0
    for x in np.linspace(0.0, 100.0, 241):
        panels, order = _rule(x * (hi - lo), hi - lo, None, 1.0)
        f = lambda u: V(u) * np.exp(-2j * np.pi * x * u)
        ref = panel_quadrature(f, lo, hi, 8 * panels, order)
        worst = max(worst, abs(fourier_dual(V, x) - ref) / (1.0 + abs(ref)))
    assert worst <= 1e-13


@pytest.mark.parametrize("panel_scale", [-3.0, 0.0, float("nan"), float("inf")])
def test_rule_refuses_bad_panel_scale(panel_scale):
    with pytest.raises(ValueError, match="panel_scale"):
        voronoi_transform_batch("divisor", 1, bump_window(), [500.0], panel_scale=panel_scale)
    with pytest.raises(ValueError, match="panel_scale"):
        voronoi_main_term("divisor", bump_window(), 3, 40.0, panel_scale=panel_scale)


@pytest.mark.parametrize("quad_order", [0, -2])
def test_rule_refuses_bad_quad_order(quad_order):
    with pytest.raises(ValueError, match="quad_order"):
        voronoi_transform_batch("divisor", 1, bump_window(), [500.0], quad_order=quad_order)


def test_voronoi_transform_rejects_nonpositive_y():
    # and non-finite y, which would otherwise reach math.ceil in _rule
    W = bump_window()
    for y in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            voronoi_transform_batch("divisor", -1, W, [y])
        with pytest.raises(DomainError):
            voronoi_transform_batch("divisor", -1, W, np.array([1.0, y]))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_fourier_dual_refuses_non_finite_x(x):
    V = plateau_window()
    with pytest.raises(ValueError, match=f"finite x, got {x!r}"):
        fourier_dual(V, x)
    with pytest.raises(ValueError, match=f"finite x, got {x!r}"):
        fourier_dual(V, np.array([[0.5, 2.0], [x, 1.0]]))


def test_voronoi_transform_delta_minus_side_vanishes():
    # holomorphic forms have no minus-side dual sum
    W = bump_window()
    assert voronoi_transform_batch("delta_form", -1, W, [2.0])[0] == 0.0
    assert np.all(voronoi_transform_batch("delta_form", -1, W, np.array([1.0, 2.0])) == 0.0)


@pytest.mark.parametrize("sign", ["+", "plus", "-", "minus", 0, 2, None])
def test_voronoi_transform_takes_only_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign must be"):
        voronoi_transform_batch("divisor", sign, bump_window(), [1.0])


def test_voronoi_transform_rejects_unknown_kind():
    with pytest.raises(UnsupportedCoefficientKind):
        voronoi_transform_batch("maass", 1, bump_window(), [1.0])


def test_voronoi_main_term_quadrature_oracle():
    # (N/c) * integral of (log(x N) + 2 gamma - 2 log c) W(x) dx, divisor only
    W = bump_window()
    N = 50.0
    for c in (1, 2, 5):
        ref = panel_quadrature(
            lambda x: W(x) * (np.log(x * N) + 2.0 * np.euler_gamma - 2.0 * math.log(c)),
            1.0, 2.0, panels=64, order=12,
        ) * N / c
        assert abs(voronoi_main_term("divisor", W, c, N) - ref) < 1e-9
    assert voronoi_main_term("delta_form", W, 3, N) == 0.0


def test_decay_check_fourier_dual():
    V = plateau_window()
    rep = decay_check(lambda x: fourier_dual(V, x), 4.0, np.linspace(1.0, 12.0, 10))
    assert rep.finite
    assert rep.constant < 50.0
    assert rep.A == 4.0


def test_decay_check_does_not_skip_nan():
    rep = decay_check(lambda x: np.where(x == 2.0, np.nan, (1.0 + x) ** -5.0), 4, [1.0, 2.0, 3.0])
    assert math.isnan(rep.constant)
    assert rep.argmax == 2.0
    assert not rep.finite


def test_decay_check_rejects_steep_exponent():
    with pytest.raises(ValueError):
        decay_check(lambda x: fourier_dual(plateau_window(), x), 7.0, np.linspace(1.0, 4.0, 4))
