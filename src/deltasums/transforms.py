"""Smooth cutoffs and the integral transforms attached to summation formulas.

Windows are concrete C-infinity constructions built from exp(-1/s) profiles:

* bump_window():    W supported on [1, 2], peak value 1 at x = 3/2.
* plateau_window(): V supported on [1/2, 3], identically 1 on [1, 2].

Their derivatives up to order 4 come from truncated Taylor series (jets)
carried through products, quotients and exp in numpy; no symbolic algebra
runs.

The transforms:

* fourier_dual(V, x)        = integral of V(u) e(-xu) du, at a scalar or an array.
* voronoi_transform_batch(g, s, W, ys): the dual-side kernel transforms of W.
    For a holomorphic weight-k coefficient sequence,
        W+(y) = integral of W(x) * 2*pi*i^k * J_{k-1}(4*pi*sqrt(yx)) dx,
        W-(y) = 0.
    For the divisor function,
        W+(y) = integral of -2*pi*Y0(4*pi*sqrt(xy)) * W(x) dx,
        W-(y) = integral of  4*K0(4*pi*sqrt(yx)) * W(x) dx.
* voronoi_main_term(g, W, c, N): the divisor-case main term
    (N/c) * integral of (log(xN) + 2*gamma - 2*log c) * W(x) dx, zero for
    cusp-form coefficients.
* decay_check: empirical sup of |T(x)| * (1+|x|)^A over a grid.

Quadrature.  Every transform integral (fourier_dual, voronoi_main_term and
voronoi_transform_batch) uses one fixed composite Gauss-Legendre rule, sized
by _rule.  The default 12-node rule takes one panel per oscillation of the
integrand, and at least 32 panels per unit of support width, which resolves
the flat edges of the windows when the integrand hardly oscillates; a
Voronoi panel_scale multiplies both.  The Voronoi transforms lay these
panels over x for the kernel matrix and over u = sqrt(x) for Hankel's
expansion (see Kernels).  Against the same rule at eight times the panels,
the Voronoi transforms of the bump window agree to 2.5e-14 relative to
1 + |value| for y in [0.01, 200], and the Fourier dual of the plateau window
to 1.9e-14 for x in [0, 100].  Against four times the panels, the plus-side
transforms of the first 6000 dual terms of (a, c, N) = (1, 3, 40),
(1, 4, 50) and (2, 5, 60) (y up to 26667) agree to 4.3e-14 each.  An
explicit quad_order gets about three panels per oscillation and no width
floor: the refinement sequence whose order the convergence checks measure.
Both transforms take their points in geometric blocks (_blocks: keys from k
to 4k, |x| for the dual and y for Voronoi), each on the rule sized for its
largest key; one point is a block of one.

Kernels.  The kernels front * J_{k-1}, -2 pi Y_0 and 4 K_0 are computed here
in numpy, with one switch at the argument z = 50.  From 50 on, Hankel's
expansion (DLMF 10.17.3-4)
    J_nu, Y_nu = sqrt(2/(pi z)) Re, Im of e^{i(z - nu pi/2 - pi/4)} sum_m a_m (i/z)^m,
cut before the first term below 1e-17 of the first (13 terms for nu = 0 at
z = 50, 27 for nu = 23, whose largest term there is 31.9), and
K_0 = sqrt(pi/(2z)) e^{-z} sum_m a_m(0) z^{-m} (DLMF 10.40.2), which is 0.0
from z = 745 on.  Below 50, J_nu by Miller's backward recurrence, Y_0 by the
Neumann series over the same J_2k, and K_0 by the trapezoid rule of step 1/8
on the integral of e^{-z cosh t}.  Against mpmath on z in [0.05, 900], J_nu
for nu = 0, 3, 11 and 23 agrees to 4.7e-15 of the envelope
min(1, sqrt(2/(pi z))), Y_0 to 1.3e-15 of the envelope times max(1, |ln z|),
and K_0 to 7.5e-16 of max(1, K_0).

Phase sums.  A Voronoi block whose smallest argument z = 4 pi sqrt(y lo) is
at least 50 goes through Hankel's expansion in u = sqrt(x).  With x = u^2
the phase is linear in u, as the Fourier dual's e(-xu) is in u = x: on a
panel with centre c and half-width h, e^{iAu} = e^{iAc} e^{iAht}.  The P
centres c_p are an arithmetic progression: with B = isqrt(P - 1) + 1 and
p = qB + r, e^{iAc_p} = e^{iAc_{qB}} e^{iA(c_r - c_0)}.  So a row costs
about 2 sqrt(P) exponentials and one complex multiply per panel, an
exponential per node and a share of one GEMM (_phase_sums, which both
transforms call), where the kernel matrix costs a Bessel value per panel
and node.  Over the 48 calls of a verify run of all three suites, the sums
agree with the same sums taken in 80-bit long double to 4.6e-14 of the sum
of |w f|, the size of the rounding of the phases A u.  On the same u-rule
they agree with scipy's jv/y0 kernel matrix to 1.2e-14 of the integral of
|k W| for weights 4, 12 and 24 and the divisor plus side.  The K_0 minus
side and smaller arguments build the kernel matrix on the x-rule, except
for K_0 rows whose smallest argument is at least 745: they are 0.0 without
one.  Both paths work in row chunks of about _CHUNK = 2^15 elements, so the
work space stays at about two megabytes plus one complex per row and term
of the expansion, whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "UnsupportedCoefficientKind",
    "SmoothWindow",
    "DecayReport",
    "bump_window",
    "plateau_window",
    "panel_quadrature",
    "adaptive_quadrature",
    "fourier_dual",
    "voronoi_transform_batch",
    "voronoi_main_term",
    "decay_check",
]

# margin around the singular endpoints of the exp(-1/s) profiles; the
# function and its first four derivatives are below 1e-300 inside it
_EDGE = 1e-9

_MAX_ORDER = 4

# elements of a kernel matrix, or of a Hankel block's per-row work arrays,
# that voronoi_transform_batch evaluates at once: one chunk's work stays in
# cache, and peak memory does not grow with the block
_CHUNK = 1 << 15

# the smallest kernel argument Hankel's expansion takes, and the size,
# relative to the first, of the first term it drops (_hankel_coefficients)
_HANKEL_Z = 50.0
_HANKEL_TOL = 1e-17

# the trapezoid step of K_0's integral, and the argument from which K_0 is
# 0.0 in doubles (e^{-745} is the smallest subnormal)
_K0_STEP = 0.125
_K0_ZERO = 745.0

# |J_k| above which Miller's recurrence divides its running values by |J_k|,
# so that its growth at small arguments cannot overflow
_MILLER_BIG = 1e100

# panel counts adaptive_quadrature starts from and gives up at
_BASE_PANELS = 8
_MAX_PANELS = 1 << 16


class DomainError(ValueError):
    """Kernel evaluated outside its domain."""


class UnsupportedCoefficientKind(ValueError):
    """Transform requested for a coefficient kind outside the implemented set."""


@dataclass(frozen=True)
class _Piece:
    """One smooth piece of a window: jet(x, order) gives its Taylor coefficients."""

    lo: float
    hi: float
    jet: Callable  # (x, order) -> array (order + 1, len(x)), row j = f^(j)(x) / j!
    closed: bool  # True: include the edge margins (constant pieces)


# Truncated Taylor series ("jets"): row j of a jet at x holds f^(j)(x) / j!.
# Products, quotients and exp follow the usual series recursions, so every
# derivative up to _MAX_ORDER comes from plain numpy arithmetic, and order 0
# evaluates the same floating-point expression as the closed formula.


def _jet_var(x, order: int, scale: float, shift: float) -> np.ndarray:
    """Jet of scale * x + shift."""
    out = np.zeros((order + 1, x.size))
    out[0] = scale * x + shift
    if order:
        out[1] = scale
    return out


def _jet_mul(a, b) -> np.ndarray:
    return np.array([sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))])


def _jet_div(a, b) -> np.ndarray:
    out = np.empty_like(b)
    for k in range(len(b)):
        out[k] = (a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))) / b[0]
    return out


def _jet_exp(a) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, len(a)):
        out[k] = sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def _jet_inv(s) -> np.ndarray:
    one = np.zeros_like(s)
    one[0] = 1.0
    return _jet_div(one, s)


def _profile(s) -> np.ndarray:
    """Jet of exp(-1/s), s > 0."""
    return _jet_exp(-_jet_inv(s))


def _bump_jet(x, order: int) -> np.ndarray:
    """exp(1 - 1/(1 - t^2)) with t = 2x - 3 mapping [1, 2] onto [-1, 1]."""
    t = _jet_var(x, order, 2.0, -3.0)
    q = -_jet_mul(t, t)
    q[0] += 1.0
    e = -_jet_inv(q)
    e[0] += 1.0
    return _jet_exp(e)


def _step_jet(x, order: int, scale: float, shift: float) -> np.ndarray:
    """f(s) / (f(s) + f(1 - s)), f(u) = exp(-1/u), s = scale * x + shift: 0 -> 1 on (0, 1)."""
    fs = _profile(_jet_var(x, order, scale, shift))
    return _jet_div(fs, fs + _profile(_jet_var(x, order, -scale, 1.0 - shift)))


class SmoothWindow:
    """A compactly supported C-infinity window with derivatives up to order 4.

    support is the closed interval outside which the window vanishes; scale
    multiplies every piece.
    """

    def __init__(self, support, pieces, scale: float = 1.0):
        self.support = (float(support[0]), float(support[1]))
        self._pieces = tuple(pieces)
        self._scale = scale
        self._bounds: dict[int, float] = {}

    def __call__(self, x, order: int = 0):
        if not 0 <= order <= _MAX_ORDER:
            raise ValueError(f"derivative order must be in [0, {_MAX_ORDER}]")
        arr = np.asarray(x, dtype=np.float64)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        for piece in self._pieces:
            if piece.closed:
                m = (arr >= piece.lo - _EDGE) & (arr <= piece.hi + _EDGE)
            else:
                m = (arr > piece.lo + _EDGE) & (arr < piece.hi - _EDGE)
            if m.any():
                out[m] += self._scale * math.factorial(order) * piece.jet(arr[m], order)[order]
        return float(out[0]) if scalar else out

    def derivative_bound(self, order: int) -> float:
        """Grid-scanned sup of |j-th derivative| over the support."""
        if order not in self._bounds:
            lo, hi = self.support
            grid = np.linspace(lo, hi, 20001)
            self._bounds[order] = float(np.abs(self(grid, order)).max())
        return self._bounds[order]

    def mass(self) -> float:
        """Integral of the window over its support."""
        lo, hi = self.support
        return adaptive_quadrature(lambda u: self(u), lo, hi, tol=1e-13).real

    def scaled(self, factor: float) -> "SmoothWindow":
        return SmoothWindow(self.support, self._pieces, scale=factor * self._scale)

    def normalized(self) -> "SmoothWindow":
        """Rescale so that the total mass (hence the dual at 0) equals 1."""
        return self.scaled(1.0 / self.mass())


@lru_cache(maxsize=None)
def bump_window() -> SmoothWindow:
    """The canonical W: supported on [1,2], peak 1 at 3/2."""
    return SmoothWindow((1.0, 2.0), [_Piece(1.0, 2.0, _bump_jet, closed=False)])


@lru_cache(maxsize=None)
def plateau_window() -> SmoothWindow:
    """The canonical V: supported on [1/2, 3], identically 1 on [1, 2]."""
    pieces = [
        _Piece(0.5, 1.0, partial(_step_jet, scale=2.0, shift=-1.0), closed=False),  # step(2x - 1)
        _Piece(1.0, 2.0, partial(_jet_var, scale=0.0, shift=1.0), closed=True),  # constant 1
        _Piece(2.0, 3.0, partial(_step_jet, scale=-1.0, shift=3.0), closed=False),  # step(3 - x)
    ]
    return SmoothWindow((0.5, 3.0), pieces)


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_layout(lo: float, hi: float, panels: int):
    """Centres and common half-width of `panels` equal panels over [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0])


def _panel_nodes(lo: float, hi: float, panels: int, order: int):
    """Abscissae and matching weights of the composite rule, flattened."""
    nodes, weights = _gauss_rule(order)
    mid, half = _panel_layout(lo, hi, panels)
    pts = (mid[:, None] + half * nodes[None, :]).ravel()
    return pts, np.tile(weights * half, panels)


def panel_quadrature(f: Callable, lo: float, hi: float, panels: int, order: int = 12):
    """Composite Gauss-Legendre rule: `panels` equal panels of the given order.

    f must accept a numpy array of abscissae; the rule is exact for
    polynomials of degree 2*order - 1 on each panel.
    """
    if panels < 1 or order < 1:
        raise ValueError("panels and order must be >= 1")
    pts, wts = _panel_nodes(lo, hi, panels, order)
    vals = np.asarray(f(pts))
    total = vals @ wts
    return complex(total) if np.iscomplexobj(vals) else float(total)


def adaptive_quadrature(f: Callable, lo: float, hi: float, tol: float = 1e-11):
    """Double the panel count of the 12-node rule until two refinements agree
    within tol; ArithmeticError if they still differ at _MAX_PANELS panels."""
    panels = _BASE_PANELS
    prev = panel_quadrature(f, lo, hi, panels)
    while panels < _MAX_PANELS:
        panels *= 2
        cur = panel_quadrature(f, lo, hi, panels)
        if abs(cur - prev) < tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise ArithmeticError(f"quadrature did not reach tol={tol:g} within {_MAX_PANELS} panels")


def _rule(cycles: float, width: float, quad_order, panel_scale: float) -> tuple[int, int]:
    """(panels, order) of the composite rule for an integrand of `cycles`
    oscillations over an interval `width` long.

    An explicit quad_order gets about three panels per oscillation; the
    default 12-node rule gets one, and at least 32 * panel_scale panels per
    unit of width.
    """
    if not (math.isfinite(panel_scale) and panel_scale > 0):
        raise ValueError(f"panel_scale must be finite and > 0, got {panel_scale!r}")
    if quad_order is not None:
        if quad_order < 1:
            raise ValueError(f"quad_order must be >= 1, got {quad_order!r}")
        return max(8, math.ceil(3.0 * cycles * panel_scale + 8 * panel_scale)), int(quad_order)
    panels = math.ceil(cycles * panel_scale + 8 * panel_scale)
    return max(8, panels, math.ceil(32 * width * panel_scale)), 12


def _blocks(keys: np.ndarray, rule: Callable):
    """Yield (idx, rule(largest key)) over the keys >= 0 in ascending
    geometric blocks, each from its smallest key k to 4k."""
    order_idx = np.argsort(keys, kind="stable")
    sorted_keys = keys[order_idx]
    start = 0
    while start < sorted_keys.size:
        stop = int(np.searchsorted(sorted_keys, 4.0 * sorted_keys[start], side="right"))
        yield order_idx[start:stop], rule(sorted_keys[stop - 1])
        start = stop


def _phase_sums(A: np.ndarray, rule, lo: float, hi: float, f: Callable) -> np.ndarray:
    """The sums of w(u) e^{iAu} f(u)[k] over the rule laid over [lo, hi], an
    array (len(A), K) for every phase slope A and index k; f maps the
    (panels, order) nodes to samples (panels, order, K). See Phase sums."""
    panels, order = rule
    nodes, weights = _gauss_rule(order)
    mid, half = _panel_layout(lo, hi, panels)
    samples = f(mid[:, None] + half * nodes)
    F = (half * weights[:, None] * samples).reshape(panels, -1)
    out = np.empty((A.size, samples.shape[2]), complex)
    # p = qB + r: c_p = mid[qB] + (mid[r] - mid[0]), so e^{iAc_p} is a coarse
    # times a fine exponential, about 2 sqrt(panels) of them per row
    B = math.isqrt(panels - 1) + 1
    n_coarse = -(-panels // B)
    offsets = np.concatenate((mid[::B], mid[:B] - mid[0]))
    rows = max(1, _CHUNK // (n_coarse * B + F.shape[1]))
    for start in range(0, A.size, rows):
        a = A[start : start + rows]
        e = np.exp(1j * np.multiply.outer(a, offsets))
        g = (e[:, :n_coarse, None] * e[:, None, n_coarse:]).reshape(a.size, -1)[:, :panels]
        # g holds e^{iAc_p}, then (rebound, which frees it before the node step)
        # g[0] + i g[1]: the panel sums of e^{iAc_p} F, per node i and index k
        g = (np.concatenate((g.real, g.imag)) @ F).reshape(2, a.size, order, -1)
        node = np.exp(1j * np.multiply.outer(a, half * nodes))[:, None, :]  # e^{iAht_i}
        out[start : start + rows] = (node @ (g[0] + 1j * g[1]))[:, 0]
    return out


def fourier_dual(V: SmoothWindow, x):
    """The dual integral of V(u) e(-xu) du over the support of V on the
    default rule, in blocks of |x|: a complex at a scalar x, an array at an array."""
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    bad = flat[~np.isfinite(flat)]
    if bad.size:
        raise ValueError(f"fourier_dual requires finite x, got {float(bad[0])!r}")
    lo, hi = V.support
    out = np.empty(flat.shape, complex)
    for idx, rule in _blocks(np.abs(flat), lambda k: _rule(k * (hi - lo), hi - lo, None, 1.0)):
        A = -2.0 * np.pi * flat[idx]
        out[idx] = _phase_sums(A, rule, lo, hi, lambda u: V(u)[..., None])[:, 0]
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


class _Kernel(NamedTuple):
    """k(z) = front * B(z) for a Bessel function B.

    value evaluates k on an array. For B = J_nu or Y_nu, nu is set and
    phase = nu pi/2 + pi/4, plus pi/2 for Y_nu, so that Hankel's expansion
    reads k(z) = front sqrt(2/(pi z)) Re[e^{i(z - phase)} sum_m a_m(nu) (i/z)^m];
    for B = K_0, nu is None.
    """

    value: Callable
    front: float
    nu: int | None = None
    phase: float = 0.0


def _voronoi_kernel(g, sign) -> _Kernel | None:
    """The Bessel kernel k with W+-(y) = integral of W(x) k(4 pi sqrt(xy)) dx.

    g may be a CoefficientSequence or the kind string itself; holomorphic
    kinds use the weight attribute (default 12). None stands for the
    identically zero minus side of holomorphic forms.
    """
    kind = getattr(g, "kind", g)
    weight = int(getattr(g, "weight", 12) or 12)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    plus = sign == 1
    if kind == "delta_form":
        if weight % 2 != 0 or weight < 4:
            raise UnsupportedCoefficientKind("holomorphic weight must be even >= 4")
        if not plus:
            return None
        nu = weight - 1
        front = 2.0 * math.pi * (-1.0) ** (weight // 2)
        return _Kernel(lambda z: front * _bessel_j(nu, z), front, nu, (nu / 2 + 0.25) * math.pi)
    if kind == "divisor":
        if plus:
            y0 = lambda z: -2.0 * np.pi * _bessel_y0(z)
            return _Kernel(y0, -2.0 * math.pi, 0, 0.75 * math.pi)
        return _Kernel(lambda z: 4.0 * _bessel_k0(z), 4.0)
    raise UnsupportedCoefficientKind(
        f"coefficient kind {kind!r} has no implemented transform (Maass forms are out of scope)"
    )


def _hankel_coefficients(nu: int | None, z: float) -> np.ndarray | None:
    """a_0, ..., a_{K-1} of Hankel's expansion at arguments >= z,
    a_k = a_{k-1} (4 nu^2 - (2k - 1)^2) / (8k) (DLMF 10.17.1), cut before the
    first term with |a_K| / z^K < _HANKEL_TOL.

    None where the expansion is not used: K_0 (nu None) and z < _HANKEL_Z.
    """
    if nu is None or z < _HANKEL_Z:
        return None
    coeffs, term = [1.0], 1.0
    while term >= _HANKEL_TOL:
        k = len(coeffs)
        ratio = (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
        coeffs.append(coeffs[-1] * ratio)
        term *= abs(ratio) / z
    return np.array(coeffs[:-1])


def _hankel_jy(nu: int, z: np.ndarray) -> np.ndarray:
    """J_nu(z) + i Y_nu(z) for z >= _HANKEL_Z by Hankel's expansion
    sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} sum_m a_m (i/z)^m (DLMF 10.17.3-4)."""
    series = np.zeros(z.shape, complex)
    for a in _hankel_coefficients(nu, _HANKEL_Z)[::-1]:
        series = series * (1j / z) + a
    phase = (nu / 2 + 0.25) * math.pi
    turn = complex(math.cos(phase), -math.sin(phase))
    return np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * z) * turn * series


def _miller(nu: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_nu(z), J_0(z) and the sum over k >= 1 of (-1)^k J_2k(z) / k, for
    0 < z < _HANKEL_Z.

    Miller's algorithm (Abramowitz and Stegun 9.12): J_{k-1} = (2k/z) J_k -
    J_{k+1} runs down from J_{M+1} = 0 at an even M well above max(nu, z),
    and the identity J_0 + 2 sum J_2k = 1 (DLMF 10.12) normalises the result.
    """
    zmax = float(z.max())
    # against mpmath this start holds J to 4.7e-15 of its envelope; one at
    # max(nu, z) + 12 + 4 z^(1/3) is off by 1e-9
    top = 2 * math.ceil((max(nu, zmax) + 20.0 + 8.0 * zmax ** (1 / 3)) / 2)
    two_over_z = 2.0 / z
    j_next, j = np.zeros_like(z), np.ones_like(z)  # J_{k+1} and J_k, up to one scale
    even, neumann, at_nu = np.zeros_like(z), np.zeros_like(z), np.zeros_like(z)
    for k in range(top, 0, -1):
        if k == nu:
            at_nu = j.copy()
        if k % 2 == 0:
            even += j
            neumann += j / (k // 2) if k % 4 == 0 else -j / (k // 2)
        j_next, j = j, k * two_over_z * j - j_next
        big = np.abs(j) > _MILLER_BIG
        if big.any():
            scale = np.abs(j[big])
            for run in (j, j_next, even, neumann, at_nu):
                run[big] /= scale
    norm = j + 2.0 * even
    return (j if nu == 0 else at_nu) / norm, j / norm, neumann / norm


def _by_region(z, far: Callable, near: Callable) -> np.ndarray:
    """far on the z >= _HANKEL_Z of an array of z > 0, near on the others."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    hi = z >= _HANKEL_Z
    if hi.any():
        out[hi] = far(z[hi])
    if not hi.all():
        out[~hi] = near(z[~hi])
    return out


def _bessel_j(nu: int, z) -> np.ndarray:
    """J_nu at z > 0: Hankel's expansion from _HANKEL_Z on, Miller's
    recurrence below."""
    return _by_region(z, lambda z: _hankel_jy(nu, z).real, lambda z: _miller(nu, z)[0])


def _neumann_y0(z: np.ndarray) -> np.ndarray:
    """Y_0 = (2/pi)(ln(z/2) + gamma) J_0 - (4/pi) sum (-1)^k J_2k / k
    (Abramowitz and Stegun 9.1.88) over Miller's J_2k."""
    _, j0, neumann = _miller(0, z)
    return (2.0 / np.pi) * ((np.log(0.5 * z) + np.euler_gamma) * j0 - 2.0 * neumann)


def _bessel_y0(z) -> np.ndarray:
    """Y_0 at z > 0: Hankel's expansion from _HANKEL_Z on, the Neumann
    series below."""
    return _by_region(z, lambda z: _hankel_jy(0, z).imag, _neumann_y0)


def _hankel_k0(z: np.ndarray) -> np.ndarray:
    """K_0 = sqrt(pi/(2z)) e^{-z} sum_k a_k(0) z^{-k} (DLMF 10.40.2) with
    Hankel's coefficients; the product underflows to 0.0 from _K0_ZERO on."""
    series = np.zeros_like(z)
    for a in _hankel_coefficients(0, _HANKEL_Z)[::-1]:
        series = series / z + a
    return np.sqrt(np.pi / (2.0 * z)) * np.exp(-z) * series


def _trapezoid_k0(z: np.ndarray) -> np.ndarray:
    """K_0 = integral over t > 0 of e^{-z cosh t} (DLMF 10.32.9) by the
    trapezoid rule of step _K0_STEP, up to the last node with
    z cosh t <= _K0_ZERO for the smallest z: later nodes add 0.0."""
    nodes = math.floor(math.acosh(_K0_ZERO / float(z.min())) / _K0_STEP)
    total = 0.5 * np.exp(-z)
    for i in range(1, nodes + 1):
        total += np.exp(-z * math.cosh(i * _K0_STEP))
    return _K0_STEP * total


def _bessel_k0(z) -> np.ndarray:
    """K_0 at z > 0: Hankel's expansion from _HANKEL_Z on, the trapezoid
    rule below."""
    return _by_region(z, _hankel_k0, _trapezoid_k0)


def _kernel_cycles(W: SmoothWindow, y: float) -> float:
    """Oscillations of the J/Y phase 4 pi sqrt(yx) across the support of W."""
    lo, hi = W.support
    return 2.0 * math.sqrt(y) * (math.sqrt(hi) - math.sqrt(lo))


def voronoi_transform_batch(
    g,
    sign,
    W: SmoothWindow,
    ys,
    quad_order: int | None = None,
    panel_scale: float = 1.0,
) -> np.ndarray:
    """The dual-side kernel transforms of W at an array of y > 0.

    Values are processed in geometric blocks; each block uses one composite
    rule sized for its largest y. A block whose smallest kernel argument
    admits Hankel's expansion (_hankel_coefficients) goes through
    _hankel_block, any other through one kernel matrix (_matrix_block);
    K_0 rows whose every argument is at least _K0_ZERO are 0.0 without it.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size == 0:
        return np.zeros(0)
    if not np.all((ys > 0) & np.isfinite(ys)):
        raise DomainError("voronoi_transform_batch requires finite y > 0")
    kernel = _voronoi_kernel(g, sign)
    if kernel is None:
        return np.zeros_like(ys)
    width = W.support[1] - W.support[0]
    sized = lambda y: _rule(_kernel_cycles(W, y), width, quad_order, panel_scale)
    out = np.empty_like(ys)
    for idx, rule in _blocks(ys, sized):
        block = ys[idx]
        zmin = 4.0 * math.pi * math.sqrt(block[0] * W.support[0])
        coeffs = _hankel_coefficients(kernel.nu, zmin)
        if coeffs is None:
            live = block.size
            if kernel.nu is None:  # K_0 is 0.0 from _K0_ZERO on
                live = int(np.searchsorted(4.0 * np.pi * np.sqrt(block * W.support[0]), _K0_ZERO))
            out[idx[:live]] = _matrix_block(kernel.value, W, block[:live], rule)
            out[idx[live:]] = 0.0
        else:
            out[idx] = _hankel_block(kernel, coeffs, W, block, rule)
    return out


def _matrix_block(kernel: Callable, W: SmoothWindow, ys: np.ndarray, rule) -> np.ndarray:
    """The transforms at ys by the kernel matrix on the rule laid over the
    support of W, evaluated and multiplied in row chunks of about _CHUNK
    elements."""
    pts, wts = _panel_nodes(*W.support, *rule)
    weighted = W(pts) * wts
    out = np.empty_like(ys)
    rows = max(1, _CHUNK // pts.size)
    for lo in range(0, ys.size, rows):
        args = 4.0 * np.pi * np.sqrt(np.multiply.outer(ys[lo : lo + rows], pts))
        out[lo : lo + rows] = kernel(args) @ weighted
    return out


def _hankel_block(
    kernel: _Kernel, coeffs: np.ndarray, W: SmoothWindow, ys: np.ndarray, rule
) -> np.ndarray:
    """The transforms at ys by Hankel's expansion, on the rule laid over
    u = sqrt(x) in [sqrt(lo), sqrt(hi)].

    With x = u^2 and A = 4 pi sqrt(y), a transform is
        front sqrt(2/(pi A)) Re[e^{-i phase} sum_m a_m (i/A)^m I_m],
        I_m = integral of 2 u^{1/2-m} W(u^2) e^{iAu} du,
    and one _phase_sums gives every I_m of every row.
    """
    m = np.arange(coeffs.size)
    A = 4.0 * np.pi * np.sqrt(ys)
    f = lambda u: (2.0 * np.sqrt(u) * W(u * u))[..., None] * u[..., None] ** -m
    I = _phase_sums(A, rule, math.sqrt(W.support[0]), math.sqrt(W.support[1]), f)
    s = coeffs * np.array([1, 1j, -1, -1j])[m % 4] * np.power.outer(1.0 / A, m)  # a_m (i/A)^m
    lead = kernel.front * np.sqrt(2.0 / (np.pi * A))
    return lead * (np.exp(-1j * kernel.phase) * (I * s).sum(axis=1)).real


def voronoi_main_term(
    g,
    W: SmoothWindow,
    c: int,
    N: float,
    quad_order: int | None = None,
    panel_scale: float = 1.0,
) -> float:
    """(N/c) * integral of (log(xN) + 2*gamma - 2*log c) W(x) dx, divisor only."""
    kind = getattr(g, "kind", g)
    if kind == "delta_form":
        return 0.0
    if kind != "divisor":
        raise UnsupportedCoefficientKind(f"no main term for kind {kind!r}")
    gamma = np.euler_gamma
    f = lambda u: W(u) * (np.log(u * N) + 2.0 * gamma - 2.0 * math.log(c))
    lo, hi = W.support
    return (N / c) * panel_quadrature(f, lo, hi, *_rule(0.0, hi - lo, quad_order, panel_scale))


@dataclass(frozen=True)
class DecayReport:
    """Empirical decay constant sup |T(x)| (1+|x|)^A over a grid."""

    A: float
    constant: float
    argmax: float
    finite: bool


def decay_check(transform: Callable, A: float, grid) -> DecayReport:
    """Fit the empirical constant in |T(x)| <= C (1+|x|)^{-A} over the grid,
    where T maps the grid array to its values, e.g. lambda x: fourier_dual(V, x);
    a NaN value makes the constant NaN and the report not finite."""
    if A > 6:
        raise ValueError("decay exponents above 6 are not quadrature-resolvable here")
    grid = np.asarray(grid, dtype=np.float64)
    vals = np.abs(transform(grid)) * (1.0 + np.abs(grid)) ** A
    at = int(np.argmax(vals))
    best = float(vals[at])
    return DecayReport(float(A), best, float(grid[at]), math.isfinite(best))
