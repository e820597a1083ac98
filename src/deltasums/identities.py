"""Stage-by-stage verification of the amplified moment pipeline.

Each derivation step is a pure check function returning a CheckReport:
the amplified Hecke expansion, exact delta detection at modulus p*M, the
Voronoi summation step with its divisor main term, the beta-sum Gauss
evaluation, and the Poisson step for the r-sum. Exact identities are held
to roundoff-scale residuals; quadrature-backed steps carry explicit
tolerances of the form tol * (1 + |LHS|).

The suite builders (appendix_suite, pipeline_suite, transforms_suite)
assemble named Check thunks; run_suite executes them in order on the
calling thread and returns reports sorted by name, so the rendered report
does not depend on the order the suites were named in.

transforms:quadrature_convergence rates the explicit-order refinement
sequence (quad_order=2 at panel_scale 1, 2, 4, 8) on the integrals
themselves, not on a rebuilt identity: both divisor dual transforms at 129
of the 6000 dual points of (a, c, N) = (1, 3, 40) and its main-term
integral, against the default 12-node rule. Each doubling must cut the
worst error by at least 4; errors under 1e-8 are not rated, and fewer than
two rated doublings fail the check.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .characters import DirichletCharacter, PrincipalCharacterNotAllowed, _exp_table, character
from .expsums import (
    _ramanujan_row,
    alpha_factorization_check,
    fourier_expansion,
    frak_c,
    frak_c_closed_form,
    frak_k,
    frak_k_closed_form,
    gauss_sum,
    kloosterman_sum,
    sqrt_cancellation_profile,
    trivial_delta,
    weil_bound_profile,
)
from .lfunctions import (
    DEFAULT_TAU_BOUND,
    CoefficientSequence,
    DegenerateAmplifier,
    OutOfCacheRange,
    _support_range,
    divisor_sequence,
    delta_sequence,
    make_amplifier,
    smoothed_sum,
)
from .modular import NotCoprime, divisors, mod_inverse, primes_in
from .transforms import (
    SmoothWindow,
    _bessel_j,
    _bessel_k0,
    _bessel_y0,
    bump_window,
    decay_check,
    fourier_dual,
    plateau_window,
    voronoi_main_term,
    voronoi_transform_batch,
)

__all__ = [
    "CheckReport",
    "Check",
    "ExactnessViolated",
    "InvalidDivisor",
    "PipelineConfig",
    "make_pipeline_config",
    "choose_detection_scale",
    "hecke_amplifier_identity",
    "delta_detection_expansion",
    "voronoi_step_check",
    "beta_sum_evaluation_check",
    "poisson_r_sum_check",
    "appendix_suite",
    "pipeline_suite",
    "transforms_suite",
    "run_suite",
]


class InvalidDivisor(ValueError):
    """The modulus c does not divide p*M."""


class ExactnessViolated(ValueError):
    """Delta detection at scale p*M would not be exact for this window."""


def _digest(*parts) -> str:
    blob = "|".join(str(p) for p in parts).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    residual is the absolute deviation the check measured; tolerance is the
    bound it must stay under. details carries check-specific diagnostics and
    never participates in equality.
    """

    name: str
    digest: str
    lhs_abs: float
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict, compare=False, repr=False)

    def line(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (
            f"{self.name},{self.digest},{self.lhs_abs:.9e},"
            f"{self.residual:.9e},{self.tolerance:.9e},{verdict}"
        )


def _report(name: str, params, lhs_abs: float, residual: float, tolerance: float, **details) -> CheckReport:
    return CheckReport(
        name=name,
        digest=_digest(name, *params),
        lhs_abs=float(lhs_abs),
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual < tolerance),
        details=details,
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Scales, coefficient data, character, and windows for one pipeline run.

    L and P are dyadic amplifier scales: the prime sets live in [L, 2L] and
    [P, 2P] with M excluded. The asymptotic side conditions are recorded by
    side_conditions() as booleans only; desk-scale runs may violate them.
    """

    N: float
    M: int
    L: float
    P: float
    seq: CoefficientSequence
    chi: DirichletCharacter
    W: SmoothWindow

    def amplifier(self):
        return make_amplifier(self.seq, self.L, self.P, exclude=self.M)

    def side_conditions(self) -> dict:
        return {
            "P > L": self.P > self.L,
            "P^2 < M*L": self.P**2 < self.M * self.L,
            "P < sqrt(M)": self.P < math.sqrt(self.M),
            "P^2*L < N": self.P**2 * self.L < self.N,
        }

    def _digest_params(self):
        return (
            self.seq.kind,
            self.M,
            self.chi.index,
            f"{self.N:g}",
            f"{self.L:g}",
            f"{self.P:g}",
        )


def _require_finite_positive(**values) -> None:
    """Refuse, with ValueError, any named value that is not finite and
    positive; NaN is refused too."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {name} = {value:g}")


def make_pipeline_config(
    kind: str = "divisor",
    M: int = 11,
    char_index: int = 1,
    N: float = 20.0,
    L: float = 3,
    P: float = 5,
) -> PipelineConfig:
    """Build a validated PipelineConfig on the bump window W, with the
    coefficient table sized to cover r*ell up to ceil(N * sup supp W) * 2L.

    Refused before any work: N, L or P not finite and positive, a table past
    DEFAULT_TAU_BOUND entries and 2P (the amplifier's prime sieve) past
    DEFAULT_TAU_BOUND. The character is built before the table, so a modulus
    that prime_modulus refuses fails first. The amplifier is built here so
    degenerate prime sets fail at once.
    """
    _require_finite_positive(N=N, L=L, P=P)
    if kind not in ("divisor", "delta_form"):
        raise ValueError(f"unknown coefficient kind {kind!r}")
    if 2 * P > DEFAULT_TAU_BOUND:
        raise ValueError(f"2P must be at most {DEFAULT_TAU_BOUND}, got P = {P:g}")
    W = bump_window()
    rmax = math.ceil(N * W.support[1]) + 1
    size = max(rmax * max(1, math.floor(2 * L)) + 16, 64)
    if size > DEFAULT_TAU_BOUND:
        raise ValueError(
            f"N = {N:g} and L = {L:g} need {size} coefficients; "
            f"at most {DEFAULT_TAU_BOUND} are built"
        )
    chi = character(M, char_index)
    if chi.is_principal:
        raise PrincipalCharacterNotAllowed("pipeline characters must be primitive")
    seq = divisor_sequence(size) if kind == "divisor" else delta_sequence(size)
    cfg = PipelineConfig(float(N), M, L, P, seq, chi, W)
    cfg.amplifier()
    return cfg


def choose_detection_scale(M: int, N: float, L: float, pmin: float = 5) -> int:
    """Smallest integer P making delta detection exact at every p in [P, 2P].

    Exactness needs p*M > 8*N*L for the smallest prime p of the dyadic
    block, and the block must stay disjoint from [L, 2L].
    """
    base = max(int(pmin), math.floor(8 * N * L / M) + 1, math.floor(2 * L) + 1)
    for P in range(base, 4 * base + 64):
        ps = [p for p in primes_in(P, 2 * P) if p != M]
        if ps and ps[0] * M > 8 * N * L:
            return P
    raise DegenerateAmplifier(f"no usable detection scale near {base}")


def hecke_amplifier_identity(cfg: PipelineConfig) -> CheckReport:
    """Check S(N) against its amplified Hecke expansion.

    LHS is the smoothed sum S(N) = sum_n lam(n) chi(n) W(n/N). The Hecke
    relation lam(l) lam(r) = lam(rl) + [l | r] lam(r/l) for prime l gives

        S(N) = (1/L*) sum_l lam(l) sum_r lam(rl) chi(r) W(r/N)
             + (1/L*) sum_l lam(l) sum_{l | r} lam(r/l) chi(r) W(r/N)

    exactly; the second sum is the correction term kept explicit instead of
    an error bound. Residual is |LHS - main - correction|, held under 1e-9.
    """
    amp = cfg.amplifier()
    seq = cfg.seq
    r = _support_range(cfg.N, cfg.W)
    w = cfg.W(r / cfg.N)
    chiw = cfg.chi.values(r) * w
    main = 0j
    corr = 0j
    for ell, lam_ell in zip(amp.ells, seq.values(amp.ells).tolist()):
        main += lam_ell * complex(np.sum(seq.values(r * ell) * chiw))
        mult = r[r % ell == 0]
        corr += lam_ell * complex(
            np.sum(seq.values(mult // ell) * cfg.chi.values(mult) * cfg.W(mult / cfg.N))
        )
    main /= amp.lstar
    corr /= amp.lstar
    lhs = smoothed_sum(cfg.seq, cfg.chi, cfg.N, cfg.W)
    residual = abs(lhs - main - corr)
    return _report(
        "hecke_amplifier_identity",
        cfg._digest_params(),
        abs(lhs),
        residual,
        1e-9,
        main=main,
        correction=corr,
        ells=amp.ells,
        lstar=amp.lstar,
    )


def _detection_span(cfg: PipelineConfig, ells: Sequence[int]) -> tuple:
    """The r with W(r/N) != 0, those weights, n_max = max(r) max(ells) and the
    range [d_lo, d_hi] of the differences d = n - r*ell, 1 <= n <= n_max,
    whose trivial_delta values delta detection tabulates."""
    r = _support_range(cfg.N, cfg.W)
    w = cfg.W(r / cfg.N)
    r, w = r[w != 0.0], w[w != 0.0]
    if r.size == 0:
        raise ValueError("window support contains no integers at this scale")
    n_max = int(r[-1]) * max(ells)
    return r, w, n_max, 1 - n_max, n_max - int(r[0]) * min(ells)


def delta_detection_expansion(cfg: PipelineConfig) -> CheckReport:
    """Replace the lam(rl) detection by the divisor-sum delta and compare.

    The pre-expansion value is the amplified main term
    (1/L*) sum_l lam(l) sum_r lam(rl) chi(r) W(r/N). The expansion rewrites
    lam(rl) = sum_n lam(n) delta(n = rl) and replaces the delta by
    (1/P*) sum_{p in P} (1/(pM)) sum_{c | pM} sum*_{a mod c} e(a(n-rl)/c),
    which is exact as long as p*M exceeds every |n - rl| the windows admit;
    the guard p*M > 8NL enforces that with margin. Each q = pM gets one
    table D_q[d] = trivial_delta(d, 0, q) over every d = n - rl, from one
    call, and the detected sides sum_n lam(n) D_q[n - rl] are one linear FFT
    correlation of D_q with lam(1..n_max). The two sides must agree to 1e-8.
    """
    amp = cfg.amplifier()
    guard = 8.0 * cfg.N * cfg.L
    for p in amp.ps:
        if p * cfg.M <= guard:
            raise ExactnessViolated(
                f"p*M = {p * cfg.M} <= 8*N*L = {guard:g}; detection is not exact"
            )
    r, w, n_max, d_lo, d_hi = _detection_span(cfg, amp.ells)
    chiw = cfg.chi.values(r) * w
    seq = cfg.seq

    # linear correlation (nfft >= size + n_max - 1): corr[j] = sum_{k < n_max}
    # lam(n_max - k) D_q[j - k], so the detected side at m is corr[n_max - m - d_lo]
    size = d_hi - d_lo + 1
    nfft = 1 << (size + n_max - 2).bit_length()
    lam_rev = np.fft.rfft(seq.values(np.arange(n_max, 0, -1)), nfft)
    ms = np.multiply.outer(amp.ells, r)
    detected = np.zeros(ms.shape)
    for p in amp.ps:
        D = trivial_delta(np.arange(d_lo, d_hi + 1), 0, p * cfg.M).real
        corr = np.fft.irfft(np.fft.rfft(D, nfft) * lam_rev, nfft)
        detected += corr[n_max - d_lo - ms]
    pre = post = 0j
    for i, (ell, lam_ell) in enumerate(zip(amp.ells, seq.values(amp.ells).tolist())):
        pre += lam_ell * complex(np.sum(seq.values(r * ell) * chiw))
        post += lam_ell * complex(np.sum(detected[i] * chiw))
    pre /= amp.lstar
    post /= amp.lstar * amp.pstar
    residual = abs(pre - post)
    return _report(
        "delta_detection_expansion",
        cfg._digest_params(),
        abs(pre),
        residual,
        1e-8,
        ps=amp.ps,
        ells=amp.ells,
        n_max=n_max,
        expansion_values=len(amp.ps) * size,
        expanded=post,
        exactness_margin=min(p * cfg.M for p in amp.ps) - guard,
    )


_VORONOI_Y_TOL = 1e-12
_VORONOI_N_CAP = 6000
_VORONOI_TOL = 1e-6


def voronoi_step_check(
    seq: CoefficientSequence,
    a: int,
    c: int,
    N: float,
    quad_order: int | None = None,
    panel_scale: float = 1.0,
) -> CheckReport:
    """Verify sum lam(n) e(an/c) W(n/N) = I + dual sums for the bump window W.

    RHS is the main term (divisor kind only) plus
    (N/c) sum_{+,-} sum_n lam(n) e(-/+ abar n / c) What_{+,-}(n N / c^2).
    Dual sums are truncated once the transform stays below _VORONOI_Y_TOL =
    1e-12 for five consecutive terms; the kernels decay slowly enough that
    the hard cap of _VORONOI_N_CAP = 6000 terms can bite first, which is
    recorded in details["truncated"]. The check passes when
    |LHS - RHS| < _VORONOI_TOL (1 + |LHS|), _VORONOI_TOL = 1e-6. An N that
    is not finite and positive is refused with ValueError, and coefficients
    past seq.bound with OutOfCacheRange.
    """
    W = bump_window()
    if c < 1:
        raise ValueError("c must be a positive integer")
    if math.gcd(a, c) != 1:
        raise NotCoprime(f"gcd({a}, {c}) != 1")
    _require_finite_positive(N=N)
    n = _support_range(N, W)
    lhs = complex(np.sum(seq.values(n) * _exp_table(c)[(a % c) * n % c] * W(n / N)))
    main = voronoi_main_term(seq, W, c, N, quad_order=quad_order, panel_scale=panel_scale)
    abar = mod_inverse(a % c, c) if c > 1 else 0
    limit = min(_VORONOI_N_CAP, seq.bound)
    dual = 0j
    truncated = {}
    terms_used = {}
    for sign in (+1, -1):
        if seq.kind == "delta_form" and sign == -1:
            truncated["minus"] = False
            terms_used["minus"] = 0
            continue
        total = 0j
        run = 0
        used = 0
        done = False
        start, block = 1, 256
        while start <= limit and not done:
            stop = min(start + block, limit + 1)
            ns = np.arange(start, stop, dtype=np.int64)
            ys = ns * (N / c**2)
            ts = voronoi_transform_batch(
                seq, sign, W, ys, quad_order=quad_order, panel_scale=panel_scale
            )
            phase = _exp_table(c)[((-sign * abar) % c) * ns % c]
            small = np.abs(ts) < _VORONOI_Y_TOL
            cut = ns.size
            for i, flag in enumerate(small.tolist()):
                run = run + 1 if flag else 0
                if run >= 5:
                    cut = i + 1
                    done = True
                    break
            total += complex(np.sum(seq.values(ns[:cut]) * phase[:cut] * ts[:cut]))
            used += cut
            start = stop
            block *= 2
        if not done and limit < _VORONOI_N_CAP:
            raise OutOfCacheRange(
                f"dual sum reached the coefficient bound {seq.bound} before converging"
            )
        dual += (N / c) * total
        key = "plus" if sign == 1 else "minus"
        truncated[key] = not done
        terms_used[key] = used
    rhs = main + dual
    residual = abs(lhs - rhs)
    tolerance = _VORONOI_TOL * (1.0 + abs(lhs))
    return _report(
        "voronoi_step_check",
        (seq.kind, seq.weight, a, c, f"{N:g}", _VORONOI_Y_TOL, _VORONOI_N_CAP)
        + (quad_order, f"{panel_scale:g}"),
        abs(lhs),
        residual,
        tolerance,
        main=main,
        truncated=truncated,
        terms_used=terms_used,
        relative=residual / (1.0 + abs(lhs)),
    )


@lru_cache(maxsize=8)
def _beta_row(chi: DirichletCharacter, q: int) -> np.ndarray:
    """sum_{beta mod q} chi(beta) e(t beta / q) at every t in [0, q), M | q,
    read-only: q times one inverse FFT of chi mod q. At q = [c, M] the
    beta-sum with e(-alpha beta ell / c) e(rhat beta / q) is t = rhat - alpha ell q/c."""
    row = q * np.fft.ifft(chi.values(np.arange(q, dtype=np.int64)))
    row.setflags(write=False)
    return row


def _require_beta_modulus(c: int, pM: int, alpha: int) -> None:
    """The beta-sum and Poisson checks need c | pM and gcd(alpha, c) = 1."""
    if pM % c != 0:
        raise InvalidDivisor(f"c = {c} does not divide p*M = {pM}")
    if math.gcd(alpha, c) != 1:
        raise NotCoprime(f"gcd({alpha}, {c}) != 1")


_BETA_SUM_TOL = 1e-9


def beta_sum_evaluation_check(
    chi: DirichletCharacter,
    c: int,
    p: int,
    alpha: int,
    ell: int,
    r: int,
) -> bool:
    """Check the closed Gauss-sum evaluation of the beta-sum.

    The beta-sum over beta mod [c, M] at r, read from _beta_row, must equal
    chibar((r - alpha*ell*M_c) * inv(c_M)) * g_chi * c_M when c_M divides
    r - alpha*ell*M_c and 0 otherwise, where c_M = c/(c, M), M_c = M/(c, M),
    within _BETA_SUM_TOL * max(1, sqrt(M) c_M).
    """
    M = chi.M
    _require_beta_modulus(c, p * M, alpha)
    g = math.gcd(c, M)
    c_m = c // g
    m_c = M // g
    t = r - alpha * ell * m_c
    lhs = _beta_row(chi, c_m * M)[t % (c_m * M)]
    if t % c_m != 0:
        rhs = 0j
    else:
        # (t / c_M) mod M realizes chibar(t * inv(c_M)) without a second division
        rhs = chi.conjugate()((t // c_m) % M) * gauss_sum(chi) * c_m
    return bool(abs(lhs - rhs) <= _BETA_SUM_TOL * max(1.0, math.sqrt(M) * c_m))


_POISSON_TRUNC = 20.0
_POISSON_STABILITY_TOL = 1e-9
_POISSON_TOL = 1e-6


def poisson_r_sum_check(
    chi: DirichletCharacter, c: int, p: int, alpha: int, ell: int, N: float
) -> CheckReport:
    """Poisson summation for the r-sum modulo q = [c, M] on the plateau window V.

    LHS = sum_{r >= 1} chi(r) e(-alpha r ell / c) V(r/N); RHS = (N/q) times
    the sum over dual frequencies rhat of beta-sum(rhat) * Vdual(rhat N / q),
    truncated at |rhat| <= R = ceil(_POISSON_TRUNC q / N), _POISSON_TRUNC = 20.
    The verdict compares LHS with the sum to 2R under _POISSON_TOL (1 + |LHS|),
    _POISSON_TOL = 1e-6; a gap between the two truncations above
    _POISSON_STABILITY_TOL = 1e-9 is flagged in details["stable"]. An N that
    is not finite and positive is refused with ValueError.
    """
    M = chi.M
    _require_beta_modulus(c, p * M, alpha)
    _require_finite_positive(N=N)
    V = plateau_window()
    r = _support_range(N, V)
    lhs = complex(np.sum(chi.values(r) * _exp_table(c)[((-alpha * ell) % c) * r % c] * V(r / N)))
    q = c * M // math.gcd(c, M)
    R = max(1, math.ceil(_POISSON_TRUNC * q / N))
    rhats = np.arange(-2 * R, 2 * R + 1)
    beta_sums = _beta_row(chi, q)[(rhats - alpha * ell * (q // c)) % q]
    terms = beta_sums * fourier_dual(V, rhats * N / q)
    outer = complex(np.sum(terms))
    inner = complex(np.sum(terms[R : 3 * R + 1]))
    rhs = (N / q) * outer
    gap = abs((N / q) * inner - rhs)
    residual = abs(lhs - rhs)
    tolerance = _POISSON_TOL * (1.0 + abs(lhs))
    return _report(
        "poisson_r_sum_check",
        (M, chi.index, c, p, alpha, ell, f"{N:g}", f"{_POISSON_TRUNC:g}"),
        abs(lhs),
        residual,
        tolerance,
        truncation=R,
        stability_gap=gap,
        stable=bool(gap <= _POISSON_STABILITY_TOL),
    )


@dataclass(frozen=True)
class Check:
    """A named, deferred verification check."""

    name: str
    thunk: Callable[[], CheckReport]


def run_suite(checks: Sequence[Check], jobs: int = 1) -> list:
    """Run checks in order on the calling thread and return their reports
    sorted by check name.

    A check that raises is converted into a failed report carrying the
    error. jobs accepts only 1.
    """
    if jobs != 1:
        raise ValueError(f"run_suite runs its checks on one thread; jobs must be 1, got {jobs}")
    reports = []
    for check in checks:
        try:
            reports.append(replace(check.thunk(), name=check.name))
        except Exception as exc:
            digest = _digest(check.name, "raised")
            reports.append(
                CheckReport(check.name, digest, math.nan, math.inf, 0.0, False, {"error": repr(exc)})
            )
    return sorted(reports, key=lambda rep: rep.name)


def _gauss_magnitude_check(mmax: int, tol: float) -> CheckReport:
    worst = 0.0
    biggest = 0.0
    for M in primes_in(5, mmax):
        root = math.sqrt(M)
        for k in range(1, M - 1):
            mag = abs(gauss_sum(character(M, k)))
            dev = abs(mag - root)
            if dev > worst:
                worst, biggest = dev, mag
    return _report("appendix:gauss_magnitude", (mmax,), biggest, worst, tol)


def _ramanujan_check(qmax: int, tol: float) -> CheckReport:
    worst = 0.0
    for q in range(1, qmax + 1):
        units = np.array([a for a in range(q) if math.gcd(a, q) == 1])
        d = np.arange(q)
        # one (q, phi(q)) phase matrix: row d holds e(d*u/q) over the units u
        brute = np.exp(2j * np.pi * (np.multiply.outer(d, units) % q) / q).sum(axis=1)
        worst = max(worst, float(np.abs(_ramanujan_row(q) - brute).max()))
    return _report("appendix:ramanujan_brute", (qmax,), float(qmax), worst, tol)


def _fourier_expansion_check(tol: float) -> CheckReport:
    worst = 0.0
    for M in (5, 7, 11, 13, 31):
        for k in sorted({1, 2, (M - 1) // 2, M - 2}):
            if k % (M - 1) == 0:
                continue
            chi = character(M, k)
            for a in range(M):
                worst = max(worst, abs(chi(a) - fourier_expansion(chi, a)))
    return _report("appendix:fourier_expansion", ("5-31",), 1.0, worst, tol)


def _kloosterman_weil_check(pmax: int) -> CheckReport:
    ratio, worst_p = weil_bound_profile(pmax)
    return _report(
        "appendix:kloosterman_weil", (pmax,), ratio, max(0.0, ratio - 1.0), 1e-9, worst_p=worst_p
    )


def _kloosterman_scaling_check(samples: int, seed: int, tol: float) -> CheckReport:
    rng = np.random.default_rng(seed)
    primes = primes_in(5, 120)
    draws = {}
    for _ in range(samples):
        p = primes[int(rng.integers(len(primes)))]
        a = int(rng.integers(1, p))
        b = int(rng.integers(1, p))
        draws.setdefault(p, []).append((a, b))
    worst = 0.0
    for p, pairs in draws.items():
        a, b = np.array(pairs).T
        scaled = kloosterman_sum(1, a * b % p, p)
        worst = max(worst, float(np.abs(kloosterman_sum(a, b, p) - scaled).max()))
    return _report("appendix:kloosterman_scaling", (samples, seed), 1.0, worst, tol)


def _k_sum_exact_check(tol: float) -> CheckReport:
    worst = 0.0
    for M in (5, 7, 11, 13, 31):
        for k in sorted({1, (M - 1) // 2, M - 2}):
            chi = character(M, k)
            params = [(r, ell, M * j) for ell in (1, 3) for j in (1, 2) for r in range(1, M)]
            closed = []
            for args in params:
                value = frak_k_closed_form(chi, *args)
                if value is None:
                    raise AssertionError("exact case must have a closed form")
                closed.append(value)
            brute = frak_k(chi, *np.array(params).T)
            worst = max(worst, float(np.abs(brute - np.array(closed)).max()))
    return _report("appendix:k_sum_exact_case", ("5-31",), 1.0, worst, tol)


def _c_sum_check(samples: int, seed: int, tol: float) -> CheckReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = 0
    for M in (5, 7, 11):
        for k in sorted({1, (M - 1) // 2}):
            chi = character(M, k)
            params, closed = [], []

            def route(*args):
                value = frak_c_closed_form(chi, *args)
                if value is not None:
                    params.append(args)
                    closed.append(value)

            for _ in range(samples // 6):
                r1, r2 = (int(rng.integers(1, M)) for _ in range(2))
                alpha, beta = (int(rng.integers(1, M)) for _ in range(2))
                # case (i): M | n
                route(r1, r2, alpha, beta, M * int(rng.integers(1, 3)))
                # case (ii): n = beta/r1 - alpha/r2 mod M, nonzero
                n2 = (beta * mod_inverse(r1, M) - alpha * mod_inverse(r2, M)) % M
                if n2 != 0:
                    route(r1, r2, alpha, beta, n2)
                # case (iii): r1 = beta/n, r2 = -alpha/n
                n3 = int(rng.integers(1, M))
                nbar = mod_inverse(n3, M)
                r1c, r2c = nbar * beta % M, (-nbar * alpha) % M
                if r1c and r2c:
                    route(r1c, r2c, alpha, beta, n3)
            if params:
                brute = frak_c(chi, *np.array(params).T)
                worst = max(worst, float(np.abs(brute - np.array(closed)).max()))
                cases += len(params)
    return _report("appendix:c_sum_closed_forms", (samples, seed), float(cases), worst, tol)


def _alpha_factorization_suite_check(samples: int, seed: int) -> CheckReport:
    rng = np.random.default_rng(seed)
    failures = 0
    total = 0
    for p, M in ((5, 7), (7, 11), (3, 13)):
        for _ in range(max(2, samples // 12)):
            k = int(rng.integers(1, M - 1))
            r = int(rng.integers(1, p * M))
            if math.gcd(r, p) != 1:
                continue
            ell = int(rng.integers(1, 50))
            if math.gcd(ell, p) != 1:
                continue
            n = int(rng.integers(1, p * M))
            total += 1
            if not alpha_factorization_check(character(M, k), p, r, ell, n):
                failures += 1
    return _report("appendix:alpha_factorization", (samples, seed), float(total), float(failures), 0.5)


def _conjugation_check(samples: int, seed: int, tol: float) -> CheckReport:
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(samples):
        M = (5, 7, 11, 13)[int(rng.integers(4))]
        k = int(rng.integers(1, M - 1))
        r = int(rng.integers(1, M))
        ell = int(rng.integers(1, M))
        n = int(rng.integers(0, 3 * M))
        groups.setdefault((M, k), []).append((r, ell, n))
    worst = 0.0
    for (M, k), params in groups.items():
        chi = character(M, k)
        r, ell, n = np.array(params).T
        left = frak_k(chi, r, ell, n).conjugate()
        right = frak_k(chi.conjugate(), r, ell, (-n) % M)
        worst = max(worst, float(np.abs(left - right).max()))
    return _report("appendix:conjugation_symmetry", (samples, seed), 1.0, worst, tol)


def _cancellation_check(family: str, M: int, samples: int, seed: int) -> CheckReport:
    prof = sqrt_cancellation_profile(family, M, samples=samples, seed=seed)
    return _report(
        f"appendix:cancellation_{family}",
        (family, M, samples, seed),
        prof.max_ratio,
        prof.max_ratio,
        10.0,
        mean_ratio=prof.mean_ratio,
    )


def appendix_suite(mmax: int = 47, samples: int = 150, seed: int = 1) -> list:
    """Checks for the appendix-level sum evaluations and cancellation claims."""
    if mmax < 5:  # the Gauss check runs over the primes in [5, mmax]
        raise ValueError(f"mmax must be >= 5, got {mmax}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    tol = 1e-9
    checks = [
        Check("appendix:gauss_magnitude", lambda: _gauss_magnitude_check(mmax, tol)),
        Check("appendix:ramanujan_brute", lambda: _ramanujan_check(min(mmax, 40), tol)),
        Check("appendix:fourier_expansion", lambda: _fourier_expansion_check(tol)),
        Check("appendix:kloosterman_weil", lambda: _kloosterman_weil_check(200)),
        Check(
            "appendix:kloosterman_scaling",
            lambda: _kloosterman_scaling_check(samples, seed, tol),
        ),
        Check("appendix:k_sum_exact_case", lambda: _k_sum_exact_check(tol)),
        Check("appendix:c_sum_closed_forms", lambda: _c_sum_check(samples, seed, tol)),
        Check(
            "appendix:alpha_factorization",
            lambda: _alpha_factorization_suite_check(samples, seed),
        ),
        Check("appendix:conjugation_symmetry", lambda: _conjugation_check(samples, seed, 1e-9)),
    ]
    for family in ("kloosterman", "generalized_kloosterman", "frak_k", "frak_c"):
        checks.append(
            Check(
                f"appendix:cancellation_{family}",
                lambda fam=family: _cancellation_check(fam, 101, min(samples, 200), seed),
            )
        )
    return checks


def _side_condition_report(cfg: PipelineConfig) -> CheckReport:
    conditions = cfg.side_conditions()
    return _report(
        "pipeline:side_conditions",
        cfg._digest_params(),
        float(len(conditions)),
        0.0,
        1.0,
        conditions=conditions,
    )


def _beta_sum_suite_check(cfg: PipelineConfig) -> CheckReport:
    p = next(p for p in primes_in(cfg.P, 4 * cfg.P + 16) if p != cfg.M)
    failures = 0
    total = 0
    for c in divisors(p * cfg.M):
        q = c * cfg.M // math.gcd(c, cfg.M)
        units = (a for a in range(1, c + 1) if math.gcd(a, c) == 1)
        for alpha in itertools.islice(units, 6):
            for ell in (1, 2):
                for r in range(0, q, max(1, q // 5)):
                    total += 1
                    if not beta_sum_evaluation_check(cfg.chi, c, p, alpha, ell, r):
                        failures += 1
    return _report(
        "pipeline:beta_sum_evaluation",
        cfg._digest_params() + (p,),
        float(total),
        float(failures),
        0.5,
    )


# trivial_delta values pipeline_suite lets delta detection tabulate (2 cores):
# 2,943 (0.003 s) at the default N = 20, 40,410 (0.007 s) at N = 80, 4,569,503
# (0.6 s, half of it Ramanujan rows, a third the correlation FFTs) at N = 1000
# and 5,419,230 at N = 1100
_MAX_DETECTION_DELTAS = 5_000_000


def pipeline_suite(
    M: int = 11,
    char_index: int = 1,
    kind: str = "divisor",
    N: float = 20.0,
    L: float = 3,
    P: float = 5,
) -> list:
    """End-to-end pipeline checks at one desk-scale configuration.

    Delta detection runs at a raised prime scale chosen by
    choose_detection_scale so its exactness precondition holds; the other
    stages run at the given (N, L, P). Detection tables of more than
    _MAX_DETECTION_DELTAS values are refused before any check runs.
    """
    cfg = make_pipeline_config(kind=kind, M=M, char_index=char_index, N=N, L=L, P=P)
    det_cfg = replace(cfg, P=float(choose_detection_scale(M, N, L, pmin=P)))
    det_amp = det_cfg.amplifier()
    *_, d_lo, d_hi = _detection_span(det_cfg, det_amp.ells)
    deltas = len(det_amp.ps) * (d_hi - d_lo + 1)
    if deltas > _MAX_DETECTION_DELTAS:
        raise ValueError(
            f"N must be smaller: delta detection at N = {N:g}, L = {L:g} needs {deltas} "
            f"trivial_delta values, at most {_MAX_DETECTION_DELTAS} are tabulated"
        )
    vor_bound = 6000

    def vor_check(seq_kind: str) -> CheckReport:
        seq = divisor_sequence(vor_bound) if seq_kind == "divisor" else delta_sequence(vor_bound)
        return voronoi_step_check(seq, 1, 3, 40.0)

    poisson_p = 3 if M != 3 else 5
    return [
        Check("pipeline:side_conditions", lambda: _side_condition_report(cfg)),
        Check("pipeline:hecke_amplifier", lambda: hecke_amplifier_identity(cfg)),
        Check("pipeline:delta_detection", lambda: delta_detection_expansion(det_cfg)),
        Check("pipeline:voronoi_divisor", lambda: vor_check("divisor")),
        Check("pipeline:voronoi_delta", lambda: vor_check("delta_form")),
        Check("pipeline:beta_sum_evaluation", lambda: _beta_sum_suite_check(cfg)),
        Check(
            "pipeline:poisson_r_sum",
            lambda: poisson_r_sum_check(cfg.chi, M, poisson_p, 1, 2, 30.0),
        ),
    ]


def _window_mass_consistency(tol: float) -> CheckReport:
    from .transforms import panel_quadrature

    worst = 0.0
    for win in (bump_window(), plateau_window()):
        lo, hi = win.support
        fixed = panel_quadrature(win, lo, hi, panels=64, order=12)
        worst = max(worst, abs(win.mass() - fixed))
    return _report("transforms:window_mass", ("bump", "plateau"), 1.0, worst, tol)


def _derivative_bound_check() -> CheckReport:
    bounds = [bump_window().derivative_bound(j) for j in range(5)]
    ok = all(math.isfinite(b) and b > 0 for b in bounds)
    return _report(
        "transforms:derivative_bounds",
        ("bump", 4),
        bounds[-1],
        0.0 if ok else float("inf"),
        1.0,
        bounds=bounds,
    )


def _fourier_normalization_check(tol: float) -> CheckReport:
    V = plateau_window().normalized()
    dev = abs(fourier_dual(V, 0.0) - 1.0)
    return _report("transforms:fourier_unit_mass", ("plateau",), 1.0, dev, tol)


def _fourier_decay_check() -> CheckReport:
    V = plateau_window()
    rep = decay_check(lambda x: fourier_dual(V, x), 4, np.geomspace(1.0, 200.0, 40))
    return _report(
        "transforms:fourier_decay_A4",
        ("plateau", 4),
        rep.constant,
        rep.constant,
        50.0,
        argmax=rep.argmax,
    )


# eighth-order central differences for the first and second derivative at
# step _ODE_STEP: on the bessel_ode grid, exact Y_0 and K_0 values give ODE
# residuals up to 3.8e-11 (at x = 0.5), a 260th of the check's 1e-8 gate
_ODE_STEP = 1.0 / 64.0
_D1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
_D2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])


def _stencil_ode_residual(kernel: Callable, sign: float, x: np.ndarray) -> np.ndarray:
    """x^2 f'' + x f' + sign x^2 f with the derivatives of f = kernel from
    the _D1/_D2 stencils."""
    f = kernel(x[:, None] + _ODE_STEP * np.arange(-4, 5))
    return x**2 * (f @ _D2) / _ODE_STEP**2 + x * (f @ _D1) / _ODE_STEP + sign * x**2 * f[:, 4]


def _bessel_ode_check(tol: float) -> CheckReport:
    """Bessel's equation x^2 f'' + x f' + (+-x^2 - nu^2) f = 0 for the
    package's own kernels on x in [0.5, 60], across the switch to Hankel's
    expansion at 50, relative to 1 + x^2.

    J_11 takes its derivatives from J_9..J_13 by the exact recurrences
    2J' = J_{nu-1} - J_{nu+1} and 4J'' = J_{nu-2} - 2J_nu + J_{nu+2}; Y_0
    and K_0 from the _D1/_D2 stencils.
    """
    x = np.linspace(0.5, 60.0, 491)
    nu = 11
    j = {n: _bessel_j(n, x) for n in range(nu - 2, nu + 3)}
    jp = 0.5 * (j[nu - 1] - j[nu + 1])
    jpp = 0.25 * (j[nu - 2] - 2 * j[nu] + j[nu + 2])
    residuals = [
        x**2 * jpp + x * jp + (x**2 - nu**2) * j[nu],
        _stencil_ode_residual(_bessel_y0, 1.0, x),
        _stencil_ode_residual(_bessel_k0, -1.0, x),
    ]
    worst = max(float(np.max(np.abs(r) / (1 + x**2))) for r in residuals)
    return _report("transforms:bessel_ode", ("J11", "Y0", "K0"), 1.0, worst, tol)


def _voronoi_smoke_check() -> CheckReport:
    return voronoi_step_check(divisor_sequence(2000), 1, 1, 30.0)


def _quadrature_convergence_check() -> CheckReport:
    # the integrals the (1, 3, 40) divisor identity sums: both dual transforms
    # at every 47th dual point y = n N / c^2 of n in [1, 6000] plus n = 6000,
    # and the main-term integral without its N/c factor
    c, N, W = 3, 40.0, bump_window()
    ys = np.append(np.arange(1, 6000, 47), 6000) * (N / c**2)

    def integrals(quad_order, panel_scale):
        duals = [
            voronoi_transform_batch("divisor", sign, W, ys, quad_order, panel_scale)
            for sign in (+1, -1)
        ]
        main = voronoi_main_term("divisor", W, c, N, quad_order, panel_scale) * c / N
        return np.append(np.concatenate(duals), main)

    reference = integrals(None, 2.0)
    # scale 1 is the coarsest setting inside the asymptotic regime at order
    # 2 (three panels per oscillation); below that the error is O(1)
    scales = (1.0, 2.0, 4.0, 8.0)
    errors = [float(np.max(np.abs(integrals(2, s) - reference))) for s in scales]
    floor = 1e-8
    ratios = np.array([prev / nxt for prev, nxt in zip(errors, errors[1:]) if nxt >= floor])
    details = {"errors": errors}
    if ratios.size < 2:  # nothing rated is no pass
        gap = float("inf")
        details["reason"] = f"{ratios.size} refinement pair(s) above the {floor:g} floor; 2 needed"
    else:  # NaN propagates into a failing gap
        gap = float(np.max(np.maximum(0.0, 4.0 - ratios)))
    return _report(
        "transforms:quadrature_convergence",
        ("divisor", c, N, ys.size, scales),
        float(ratios.min()) if ratios.size else 0.0,
        gap,
        1e-9,
        **details,
    )


def transforms_suite() -> list:
    """Transform-layer checks: windows, kernels, decay, and convergence order."""
    return [
        Check("transforms:window_mass", lambda: _window_mass_consistency(1e-9)),
        Check("transforms:derivative_bounds", _derivative_bound_check),
        Check("transforms:fourier_unit_mass", lambda: _fourier_normalization_check(1e-9)),
        Check("transforms:fourier_decay_A4", _fourier_decay_check),
        Check("transforms:bessel_ode", lambda: _bessel_ode_check(1e-8)),
        Check("transforms:voronoi_identity_c1", _voronoi_smoke_check),
        Check("transforms:quadrature_convergence", _quadrature_convergence_check),
    ]
