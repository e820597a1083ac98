"""Pipeline identity checks, suites and their failure modes."""

import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest

from deltasums import expsums, identities, transforms
from deltasums.characters import PrincipalCharacterNotAllowed, character
from deltasums.identities import (
    Check,
    CheckReport,
    ExactnessViolated,
    InvalidDivisor,
    _fourier_decay_check,
    _quadrature_convergence_check,
    _support_range,
    appendix_suite,
    beta_sum_evaluation_check,
    choose_detection_scale,
    delta_detection_expansion,
    hecke_amplifier_identity,
    make_pipeline_config,
    pipeline_suite,
    poisson_r_sum_check,
    run_suite,
    transforms_suite,
    voronoi_step_check,
)
from deltasums.lfunctions import DEFAULT_TAU_BOUND, OutOfCacheRange, divisor_sequence
from deltasums.modular import MAX_MODULUS, NotCoprime

LINE_RE = re.compile(
    r"^[a-z0-9_:]+,[0-9a-f]{12},\d\.\d{9}e[+-]\d{2,3},\d\.\d{9}e[+-]\d{2,3},"
    r"\d\.\d{9}e[+-]\d{2,3},(pass|fail)$"
)


def test_hecke_amplifier_identity_both_kinds():
    for kind in ("divisor", "delta_form"):
        cfg = make_pipeline_config(kind=kind, M=11, N=20.0, L=3, P=5)
        rep = hecke_amplifier_identity(cfg)
        assert rep.passed
        assert rep.residual < 1e-12
        assert LINE_RE.match(rep.line()), rep.line()


def test_hecke_identity_digest_stable():
    cfg = make_pipeline_config(kind="divisor", M=11, N=20.0, L=3, P=5)
    a = hecke_amplifier_identity(cfg)
    b = hecke_amplifier_identity(make_pipeline_config(kind="divisor", M=11, N=20.0, L=3, P=5))
    assert a.digest == b.digest
    assert a.line() == b.line()


def test_delta_detection_exact():
    M = 101
    P = choose_detection_scale(M, 10.0, 2)
    cfg = make_pipeline_config(kind="divisor", M=M, N=10.0, L=2, P=float(P))
    rep = delta_detection_expansion(cfg)
    assert rep.passed
    assert rep.residual < 1e-10
    # every detection prime clears the exactness threshold
    assert rep.details["exactness_margin"] > 0


def test_delta_detection_guard():
    # p*M far below 8*N*L: the expansion is no longer an indicator
    cfg = make_pipeline_config(kind="divisor", M=11, N=40.0, L=3, P=5)
    with pytest.raises(ExactnessViolated):
        delta_detection_expansion(cfg)


def _detection_cfg(kind, M, N, L):
    P = choose_detection_scale(M, N, L)
    return make_pipeline_config(kind=kind, M=M, N=N, L=L, P=float(P))


def _per_n_detection(cfg):
    """(pre, post) by one trivial_delta call per (ell, p, r, n)."""
    amp = cfg.amplifier()
    r_all = _support_range(cfg.N, cfg.W)
    w_all = cfg.W(r_all / cfg.N)
    r = r_all[w_all != 0.0]
    chiw = cfg.chi.values(r) * w_all[w_all != 0.0]
    lam = cfg.seq.lam
    n_max = int(r[-1]) * max(amp.ells)
    pre = post = 0j
    for ell in amp.ells:
        lam_ell = float(lam[ell])
        pre += lam_ell * complex(np.sum(lam[r * ell] * chiw))
        for p in amp.ps:
            for rv, cw in zip(r.tolist(), chiw.tolist()):
                detected = math.fsum(
                    float(lam[n]) * identities.trivial_delta(n, rv * ell, p * cfg.M).real
                    for n in range(1, n_max + 1)
                )
                post += lam_ell * cw * detected
    return pre / amp.lstar, post / (amp.lstar * amp.pstar)


@pytest.mark.parametrize("kind", ["divisor", "delta_form"])
@pytest.mark.parametrize("M,N,L", [(11, 20.0, 3), (101, 10.0, 2)])
def test_delta_detection_matches_the_per_n_expansion(kind, M, N, L):
    cfg = _detection_cfg(kind, M, N, L)
    rep = delta_detection_expansion(cfg)
    pre, post = _per_n_detection(cfg)
    assert rep.passed
    assert abs(rep.details["expanded"] - post) <= 1e-12 * (1 + abs(pre))
    assert abs(rep.lhs_abs - abs(pre)) <= 1e-12 * (1 + abs(pre))


def test_delta_detection_tabulates_each_difference_once(monkeypatch):
    calls = []
    real = identities.trivial_delta

    def counting(n, m, q):
        calls.append((q, np.size(n)))
        return real(n, m, q)

    monkeypatch.setattr(identities, "trivial_delta", counting)
    cfg = _detection_cfg("divisor", 11, 20.0, 3)
    rep = delta_detection_expansion(cfg)
    ps = rep.details["ps"]
    assert rep.passed
    # one table per q = 11p, each over at most 2 n_max differences
    assert sorted(q for q, _ in calls) == [p * 11 for p in ps]
    assert all(0 < size <= 2 * rep.details["n_max"] for _, size in calls)
    assert rep.details["expansion_values"] == sum(size for _, size in calls)


def test_delta_detection_fails_on_a_perturbed_residue_class(monkeypatch):
    real = identities.trivial_delta

    def perturbed(n, m, q):
        return real(n, m, q) + np.where((n - m) % q == 1, 1e-6, 0.0)

    monkeypatch.setattr(identities, "trivial_delta", perturbed)
    rep = delta_detection_expansion(_detection_cfg("divisor", 101, 10.0, 2))
    assert not rep.passed
    assert rep.residual > rep.tolerance


def test_ramanujan_brute_sees_a_planted_row_defect(monkeypatch):
    real = expsums._ramanujan_row

    def planted(c):
        row = real(c).copy()
        row[0] *= 1 + 1e-10
        return row

    monkeypatch.setattr(expsums, "_ramanujan_row", planted)
    monkeypatch.setattr(identities, "_ramanujan_row", planted)
    expsums._delta_row.cache_clear()
    try:
        rep = identities._ramanujan_check(40, 1e-9)
        assert not rep.passed and rep.residual > rep.tolerance
        # the check reads the rows trivial_delta sums
        assert expsums.trivial_delta(0, 0, 37) != 1.0
    finally:
        expsums._delta_row.cache_clear()


def test_choose_detection_scale_satisfies_guard():
    for M, N, L in [(101, 10.0, 2), (101, 10.0, 3), (11, 20.0, 3)]:
        P = choose_detection_scale(M, N, L)
        cfg = make_pipeline_config(kind="divisor", M=M, N=N, L=L, P=float(P))
        ps = cfg.amplifier().ps
        assert ps and ps[0] * M > 8.0 * N * L


def test_pipeline_config_rejects_principal():
    with pytest.raises(PrincipalCharacterNotAllowed):
        make_pipeline_config(M=11, char_index=0)


@pytest.mark.parametrize(
    "args, message",
    [
        # L = 3 needs 6 (ceil(2N) + 1) + 16 coefficients: 10^6 at N = 83331.5
        ({"kind": "divisor", "N": 83332.0}, "coefficients"),
        ({"kind": "delta_form", "N": 83332.0}, "coefficients"),
        ({"M": 100019}, "M must be at most"),  # the next prime past MAX_MODULUS
        ({"P": 500_000.5}, "2P must be at most"),
    ],
)
def test_pipeline_config_refuses_scales_past_its_bounds(args, message):
    with pytest.raises(ValueError, match=message):
        make_pipeline_config(**args)


def test_pipeline_config_refuses_a_large_modulus_before_the_table():
    before = divisor_sequence.cache_info()
    with pytest.raises(ValueError, match=f"M must be at most {MAX_MODULUS}, got 100019"):
        make_pipeline_config(M=100019, N=1000.0)
    assert divisor_sequence.cache_info().misses == before.misses


def test_pipeline_config_accepts_scales_at_its_bounds():
    assert make_pipeline_config(N=83331.5).seq.bound == DEFAULT_TAU_BOUND
    assert make_pipeline_config(M=MAX_MODULUS).M == MAX_MODULUS
    assert make_pipeline_config(P=500_000).amplifier().ps[-1] < 2 * 500_000


def test_side_conditions_reported():
    cfg = make_pipeline_config(kind="divisor", M=101, N=20.0, L=2, P=5)
    flags = cfg.side_conditions()
    assert set(flags) == {"P > L", "P^2 < M*L", "P < sqrt(M)", "P^2*L < N"}
    assert flags["P > L"] is True


def test_voronoi_step_check_small():
    seq = divisor_sequence(6000)
    rep = voronoi_step_check(seq, 1, 3, 40.0)
    assert rep.passed
    assert rep.details["relative"] < 1e-6


def test_voronoi_step_check_rejects_common_factor():
    seq = divisor_sequence(512)
    with pytest.raises(NotCoprime):
        voronoi_step_check(seq, 3, 6, 20.0)


def test_voronoi_step_check_cache_exhaustion():
    # dual tail has not decayed by n = 512, and the cap sits beyond the cache
    seq = divisor_sequence(512)
    with pytest.raises(OutOfCacheRange):
        voronoi_step_check(seq, 1, 3, 40.0)


def test_pipeline_checks_refuse_coefficients_past_the_sequence():
    # each check reads lam through CoefficientSequence.values, whose refusal
    # names the largest n asked for
    seq = divisor_sequence(30)
    with pytest.raises(OutOfCacheRange, match=r"n in \[40, 80\], outside .* \[1, 30\]"):
        voronoi_step_check(seq, 1, 3, 40.0)
    hecke = make_pipeline_config(kind="divisor", M=11, N=20.0, L=3, P=5)
    with pytest.raises(OutOfCacheRange, match=r"outside .* \[1, 100\]"):
        hecke_amplifier_identity(dataclasses.replace(hecke, seq=divisor_sequence(100)))
    M = 101
    P = choose_detection_scale(M, 10.0, 2)
    detect = make_pipeline_config(kind="divisor", M=M, N=10.0, L=2, P=float(P))
    with pytest.raises(OutOfCacheRange, match=r"outside .* \[1, 40\]"):
        delta_detection_expansion(dataclasses.replace(detect, seq=divisor_sequence(40)))


@pytest.mark.parametrize("N", [-30.0, 0.0, math.nan, math.inf, -math.inf])
def test_voronoi_and_poisson_checks_refuse_an_n_that_is_not_finite_and_positive(N):
    with pytest.raises(ValueError, match="N must be finite and positive"):
        voronoi_step_check(divisor_sequence(512), 1, 3, N)
    with pytest.raises(ValueError, match="N must be finite and positive"):
        poisson_r_sum_check(character(11, 1), 11, 3, 1, 2, N)


def test_beta_sum_check_exhaustive_tiny():
    chi = character(5, 1)
    for c in (1, 2, 5, 10):
        for alpha in (1, 3):
            if np.gcd(alpha, c) != 1:
                continue
            for ell in (1, 2):
                for r in range(0, 10, 3):
                    assert beta_sum_evaluation_check(chi, c, 2, alpha, ell, r)


def test_beta_sum_check_validation():
    chi = character(5, 1)
    with pytest.raises(InvalidDivisor):
        beta_sum_evaluation_check(chi, 3, 2, 1, 1, 0)
    with pytest.raises(NotCoprime):
        beta_sum_evaluation_check(chi, 10, 2, 5, 1, 0)


def test_poisson_r_sum_check():
    chi = character(11, 1)
    rep = poisson_r_sum_check(chi, 11, 3, 1, 2, 30.0)
    assert rep.passed
    assert rep.details["truncation"] >= 1


def test_fourier_duals_take_one_call_per_check(monkeypatch):
    # the dual frequencies of the Poisson sum and the decay grid go to
    # fourier_dual as one array each
    calls = []

    def counting(V, x):
        calls.append(np.shape(x))
        return transforms.fourier_dual(V, x)

    monkeypatch.setattr(identities, "fourier_dual", counting)
    assert poisson_r_sum_check(character(11, 1), 11, 3, 1, 2, 30.0).passed
    assert len(calls) == 1 and calls[0][0] > 1
    calls.clear()
    assert _fourier_decay_check().passed
    assert calls == [(40,)]


def test_poisson_r_sum_rejects_bad_divisor():
    with pytest.raises(InvalidDivisor):
        poisson_r_sum_check(character(11, 1), 7, 3, 1, 1, 30.0)


def test_run_suite_captures_exceptions():
    def boom():
        raise RuntimeError("exploded")

    def fine():
        return CheckReport("z_fine", "0" * 12, 1.0, 0.0, 1.0, True)

    reports = run_suite([Check("a_boom", boom), Check("z_fine", fine)])
    assert [r.name for r in reports] == ["a_boom", "z_fine"]
    assert not reports[0].passed
    assert reports[0].residual == float("inf")
    assert "RuntimeError" in reports[0].details["error"]
    assert reports[1].passed


def test_pipeline_suite_runs_the_largest_detection_configuration():
    (check,) = [c for c in pipeline_suite(N=80.0) if c.name == "pipeline:delta_detection"]
    (report,) = run_suite([check])
    assert report.passed
    assert report.details["expansion_values"] == 40410


def test_pipeline_suite_bounds_the_detection_tables():
    assert len(pipeline_suite(N=1000.0)) == 7  # 4,569,503 tabulated values
    with pytest.raises(ValueError, match="needs 5419230 trivial_delta values"):
        pipeline_suite(N=1100.0)


def test_pipeline_suite_passes_at_a_five_digit_modulus():
    reports = run_suite(pipeline_suite(M=10007))
    assert len(reports) == 7
    assert all(rep.passed for rep in reports), [rep.line() for rep in reports]


def test_run_suite_refuses_more_than_one_job():
    with pytest.raises(ValueError, match="jobs must be 1, got 2"):
        run_suite(transforms_suite(), jobs=2)


# (name, digest) of every report of the three suites below, recorded before
# the check options became constants: the digests hash each check's
# configuration, so a constant that changes value or type changes one
APPENDIX_DIGESTS = [
    ("appendix:alpha_factorization", "23437af53e36"),
    ("appendix:c_sum_closed_forms", "216bb036ae8f"),
    ("appendix:cancellation_frak_c", "0e6d870bfca1"),
    ("appendix:cancellation_frak_k", "8e3ccb85f27e"),
    ("appendix:cancellation_generalized_kloosterman", "7e62649a8a72"),
    ("appendix:cancellation_kloosterman", "72035c1b4a4b"),
    ("appendix:conjugation_symmetry", "a10a18488bbd"),
    ("appendix:fourier_expansion", "f04fc21b0715"),
    ("appendix:gauss_magnitude", "94e13cbc3d5e"),
    ("appendix:k_sum_exact_case", "58d2ab29a366"),
    ("appendix:kloosterman_scaling", "663b0b996f94"),
    ("appendix:kloosterman_weil", "14096fa058f8"),
    ("appendix:ramanujan_brute", "4d3f7edf7e5f"),
]
PIPELINE_DIGESTS = [
    ("pipeline:beta_sum_evaluation", "14fd014ae37c"),
    ("pipeline:delta_detection", "eb82be536160"),
    ("pipeline:hecke_amplifier", "174a978712e6"),
    ("pipeline:poisson_r_sum", "094023623425"),
    ("pipeline:side_conditions", "97f3216dc121"),
    ("pipeline:voronoi_delta", "3c48041e9f97"),
    ("pipeline:voronoi_divisor", "13f0986ceb76"),
]
TRANSFORMS_DIGESTS = [
    ("transforms:bessel_ode", "b3c0c3d157ac"),
    ("transforms:derivative_bounds", "d54d89f9ccbd"),
    ("transforms:fourier_decay_A4", "f068c22326d0"),
    ("transforms:fourier_unit_mass", "646cf854f3f0"),
    ("transforms:quadrature_convergence", "c3926b1da5fc"),
    ("transforms:voronoi_identity_c1", "764783fc049b"),
    ("transforms:window_mass", "72b6c6d2c25f"),
]


def test_appendix_suite_passes():
    reports = run_suite(appendix_suite(mmax=31, samples=60, seed=2))
    assert reports and all(r.passed for r in reports), [
        r.line() for r in reports if not r.passed
    ]
    assert [(r.name, r.digest) for r in reports] == APPENDIX_DIGESTS


def test_pipeline_suite_passes():
    reports = run_suite(pipeline_suite(M=11, N=20.0, L=3, P=5))
    assert reports and all(r.passed for r in reports), [
        r.line() for r in reports if not r.passed
    ]
    assert [(r.name, r.digest) for r in reports] == PIPELINE_DIGESTS


def test_transforms_suite_passes():
    reports = run_suite(transforms_suite())
    assert reports and all(r.passed for r in reports), [
        r.line() for r in reports if not r.passed
    ]
    assert [(r.name, r.digest) for r in reports] == TRANSFORMS_DIGESTS


def test_bessel_ode_stencil_error_is_below_a_hundredth_of_the_gate():
    # the check's stencils on exact Y_0 and K_0 (mpmath): what remains is the
    # stencils' own error, largest at the smallest x
    x = np.linspace(0.5, 60.0, 491)[::49]
    with mp.workdps(20):
        for f, sign in ((mp.bessely, 1.0), (mp.besselk, -1.0)):
            exact = np.vectorize(lambda t: float(f(0, mp.mpf(t))))
            residual = identities._stencil_ode_residual(exact, sign, x)
            assert np.max(np.abs(residual) / (1 + x**2)) <= 1e-10


def test_quadrature_convergence_rates_every_refinement():
    rep = _quadrature_convergence_check()
    assert rep.passed, rep.details
    errors = rep.details["errors"]
    assert len(errors) == 4 and min(errors) >= 1e-8  # all three pairs rated
    assert rep.lhs_abs == pytest.approx(min(a / b for a, b in zip(errors, errors[1:])))


def test_quadrature_convergence_fails_when_nothing_is_rated(monkeypatch):
    # every explicit order becomes the 12-node rule: all errors fall to
    # roundoff, under the floor, and no refinement pair is left to rate
    rule = transforms._rule
    monkeypatch.setattr(transforms, "_rule", lambda cyc, width, q, s: rule(cyc, width, None, s))
    rep = _quadrature_convergence_check()
    assert max(rep.details["errors"]) < 1e-8
    assert not rep.passed
    assert "floor" in rep.details["reason"]


def test_quadrature_convergence_fails_when_panel_scale_is_ignored(monkeypatch):
    rule = transforms._rule
    monkeypatch.setattr(
        transforms, "_rule", lambda cyc, width, q, s: rule(cyc, width, q, s if q is None else 1.0)
    )
    assert not _quadrature_convergence_check().passed


def test_quadrature_convergence_fails_on_a_perturbed_order_2_weight(monkeypatch):
    gauss = transforms._gauss_rule

    def perturbed(order):
        nodes, weights = gauss(order)
        return (nodes, weights * [1.0 + 1e-6, 1.0]) if order == 2 else (nodes, weights)

    monkeypatch.setattr(transforms, "_gauss_rule", perturbed)
    assert not _quadrature_convergence_check().passed


def test_report_line_format():
    rep = CheckReport("x:y", "abcdef012345", 12.5, 3e-11, 1e-9, True)
    assert rep.line() == "x:y,abcdef012345,1.250000000e+01,3.000000000e-11,1.000000000e-09,pass"


def test_reports_are_frozen():
    rep = CheckReport("x", "0" * 12, 1.0, 0.0, 1.0, True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.name = "y"
