"""Acceptance gate: the eleven contract criteria, one printed line each.

Every test prints `ACCEPTANCE <n> <name>: PASS|FAIL (<measurements>)` before
asserting, and the lines are replayed in the terminal summary.  Two criteria
check derived relations rather than a value read off the statement:

* criterion 3 pins the quadratic inverted-pair closed form at
  chi(-alpha*beta) * (M - 2).  With r1 = nbar*beta and r2 = -nbar*alpha every
  summand equals chi(-alpha*beta) * chibar((nz + beta)^2), which is
  chi(-alpha*beta) for quadratic chi, and the restriction to units
  n + beta*zbar leaves M - 2 of the M - 1 units z.  Brute enumeration, this
  value and `frak_c_closed_form` must agree.
* criterion 10 keeps the 3/16-envelope within 10x of its M = 100 value and
  ties its growth to that of the 1/4-envelope:
  (m_c/m_b0)^(1/16) <= growth_b/growth_c <= (m_b/m_c0)^(1/16), where m_* are
  the moduli at which the envelopes set their records.  The growth of the
  3/16-envelope is never below that of the 1/4-envelope on any data, so
  the relation, not a strict ordering, is what a sweep can be held to.

The failure messages carry the measured numbers.
"""

import math
import time
from pathlib import Path

import numpy as np

from deltasums.characters import character, enumerate_characters
from deltasums.expsums import (
    frak_c,
    frak_c_closed_form,
    frak_k,
    gauss_sum,
    sqrt_cancellation_profile,
    trivial_delta,
    weil_bound_profile,
)
from deltasums.identities import (
    beta_sum_evaluation_check,
    delta_detection_expansion,
    hecke_amplifier_identity,
    make_pipeline_config,
    poisson_r_sum_check,
    voronoi_step_check,
)
from deltasums.lfunctions import (
    burgess_sweep,
    delta_sequence,
    divisor_sequence,
    l_value_dirichlet,
    monotone_envelope,
    write_sweep_csv,
)
from deltasums.modular import divisors, primes_in
from deltasums.transforms import (
    bump_window,
    decay_check,
    fourier_dual,
    plateau_window,
    voronoi_transform_batch,
)
from oracles import smoothed_row, smoothed_value

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"
RESULT_LINES: list[str] = []  # replayed by the conftest terminal summary


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    RESULT_LINES.append(line)


def test_criterion_01_trivial_delta_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    m = 1500
    for q in range(1, 501):
        for d in range(-1000, 1001):
            got = trivial_delta(m + d, m, q)
            want = 1.0 if d % q == 0 else 0.0
            dev = abs(got - want)
            if dev > worst:
                worst = dev
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    _report(1, "trivial_delta_exactness", ok, f"max_dev={worst:.3e} wall={elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 60.0


def test_criterion_02_frak_k_exact_case():
    t0 = time.perf_counter()
    worst = 0.0
    for M in primes_in(5, 100):
        for chi in enumerate_characters(M, "primitive"):
            target = -np.conj(chi.value_table())
            for r in range(1, M):
                dev = abs(frak_k(chi, r, 1, M) - target[r])
                if dev > worst:
                    worst = dev
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 120.0
    _report(2, "frak_k_exact_case", ok, f"max_dev={worst:.3e} wall={elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 120.0


def test_criterion_03_paired_sum_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_routed = 0.0  # cases (i), (ii) and the non-quadratic branch of (iii)
    worst_quad = 0.0  # quadratic (iii): brute vs chi(-alpha*beta)*(M-2) and the routed form
    worst_quad_m1 = 0.0  # the same data against an (M-1) constant, printed only
    for M in (5, 7, 11, 13):
        units = list(range(1, M))
        for chi in enumerate_characters(M, "primitive"):
            for r1 in units:
                r1bar = pow(r1, -1, M)
                for r2 in units:
                    alpha = int(rng.integers(1, M))
                    beta = int(rng.integers(1, M))
                    # case (i): M | n
                    got = frak_c(chi, r1, r2, alpha, beta, M)
                    want = frak_c_closed_form(chi, r1, r2, alpha, beta, M)
                    worst_routed = max(worst_routed, abs(got - want))
                    # case (ii): n = beta*r1bar - alpha*r2bar, skipping M | n
                    n2 = (beta * r1bar - alpha * pow(r2, -1, M)) % M
                    if n2 != 0:
                        got = frak_c(chi, r1, r2, alpha, beta, n2)
                        want = frak_c_closed_form(chi, r1, r2, alpha, beta, n2)
                        worst_routed = max(worst_routed, abs(got - want))
            # case (iii): r1 = nbar*beta, r2 = -nbar*alpha forced by (alpha, beta, n)
            for _ in range(40):
                alpha, beta, n = (int(x) for x in rng.integers(1, M, size=3))
                nbar = pow(n, -1, M)
                r1 = (nbar * beta) % M
                r2 = (-nbar * alpha) % M
                got = frak_c(chi, r1, r2, alpha, beta, n)
                want = frak_c_closed_form(chi, r1, r2, alpha, beta, n)
                if chi.is_quadratic:
                    # r1 + z = (nz + beta)/n and r2 + alpha*(n + beta*zbar)^{-1}
                    # = -alpha*beta / (n(nz + beta)), so each summand is
                    # chi(-alpha*beta) * chibar((nz + beta)^2) = chi(-alpha*beta)
                    # for quadratic chi.  z runs over the M - 1 units except
                    # z = -beta*nbar (where n + beta*zbar = 0), so M - 2 terms;
                    # chi(-alpha*beta) = chi(nbar*r2*beta) is the routed constant.
                    derived = chi(-alpha * beta) * (M - 2)
                    worst_quad = max(worst_quad, abs(got - derived), abs(got - want))
                    worst_quad_m1 = max(
                        worst_quad_m1, abs(got - chi(nbar * r2 * beta) * (M - 1))
                    )
                else:
                    worst_routed = max(worst_routed, abs(got - want))
    elapsed = time.perf_counter() - t0
    worst = max(worst_routed, worst_quad)
    ok = worst < 1e-9 and elapsed < 120.0
    _report(
        3,
        "paired_sum_closed_forms",
        ok,
        f"routed_dev={worst_routed:.3e} quad_m2_dev={worst_quad:.3e} "
        f"quad_m1_dev={worst_quad_m1:.3e} wall={elapsed:.1f}s",
    )
    assert worst_routed < 1e-9, (
        f"cases (i)/(ii)/non-quadratic (iii) miss the closed forms by {worst_routed:.3e}"
    )
    assert worst_quad < 1e-9, (
        f"quadratic case (iii): brute frak_c, chi(-alpha*beta)*(M-2) and "
        f"frak_c_closed_form disagree by {worst_quad:.3e}"
    )
    assert elapsed < 120.0


def test_criterion_04_sqrt_cancellation_envelopes():
    t0 = time.perf_counter()
    weil_ratio, weil_p = weil_bound_profile(200)
    k_prof = sqrt_cancellation_profile("frak_k", 101, 500, seed=1)
    c_prof = sqrt_cancellation_profile("frak_c", 101, 500, seed=1)
    elapsed = time.perf_counter() - t0
    ok = weil_ratio <= 1.0 and k_prof.max_ratio <= 10.0 and c_prof.max_ratio <= 10.0 and elapsed < 60.0
    _report(
        4,
        "sqrt_cancellation_envelopes",
        ok,
        f"weil={weil_ratio:.6f}@p={weil_p} frak_k={k_prof.max_ratio:.3f} "
        f"frak_c={c_prof.max_ratio:.3f} wall={elapsed:.1f}s",
    )
    assert weil_ratio <= 1.0
    assert k_prof.max_ratio <= 10.0
    assert c_prof.max_ratio <= 10.0
    assert elapsed < 60.0


def test_criterion_05_gauss_sum_magnitude():
    t0 = time.perf_counter()
    worst = 0.0
    for M in primes_in(5, 500):
        root = math.sqrt(M)
        for chi in enumerate_characters(M, "primitive"):
            dev = abs(abs(gauss_sum(chi)) - root)
            if dev > worst:
                worst = dev
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    _report(5, "gauss_sum_magnitude", ok, f"max_dev={worst:.3e} wall={elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_06_voronoi_identity():
    t0 = time.perf_counter()
    configs = [(1, 3, 40.0), (1, 4, 50.0), (2, 5, 60.0)]
    worst = {"delta_form": 0.0, "divisor": 0.0}
    for kind, seq in (
        ("delta_form", delta_sequence(6000, cache=None)),
        ("divisor", divisor_sequence(6000)),
    ):
        for a, c, N in configs:
            rep = voronoi_step_check(seq, a, c, N)
            worst[kind] = max(worst[kind], rep.details["relative"])
    elapsed = time.perf_counter() - t0
    hit = max(worst.values())
    ok = hit < 1e-6 and elapsed < 120.0
    _report(
        6,
        "voronoi_identity",
        ok,
        f"delta_form_rel={worst['delta_form']:.3e} divisor_rel={worst['divisor']:.3e} "
        f"wall={elapsed:.1f}s",
    )
    assert hit < 1e-6
    assert elapsed < 120.0


def test_criterion_07_pipeline_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for kind in ("divisor", "delta_form"):
        for M in (11, 101):
            for N in (10.0, 40.0):
                for L in (2, 3):
                    cfg = make_pipeline_config(kind=kind, M=M, N=N, L=L, P=5)
                    worst = max(worst, hecke_amplifier_identity(cfg).residual)
                    count += 1
        for L, P in ((2, 5), (3, 7)):
            cfg = make_pipeline_config(kind=kind, M=101, N=10.0, L=L, P=float(P))
            worst = max(worst, delta_detection_expansion(cfg).residual)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and count == 20 and elapsed < 180.0
    _report(
        7,
        "pipeline_exactness",
        ok,
        f"configs={count} max_residual={worst:.3e} wall={elapsed:.1f}s",
    )
    assert count == 20
    assert worst < 1e-8
    assert elapsed < 180.0


def test_criterion_08_beta_sum_and_poisson():
    t0 = time.perf_counter()
    checked = 0
    for M in (5, 7):
        for chi in enumerate_characters(M, "primitive"):
            for p in (2, 3):
                for c in divisors(p * M):
                    for alpha in (a for a in range(1, c + 1) if math.gcd(a, c) == 1):
                        for ell in range(M):
                            for r in range(p * M):
                                assert beta_sum_evaluation_check(chi, c, p, alpha, ell, r)
                                checked += 1
    poisson = poisson_r_sum_check(character(11, 1), 11, 3, 1, 2, 30.0)
    elapsed = time.perf_counter() - t0
    ok = poisson.residual < 1e-6 and elapsed < 60.0
    _report(
        8,
        "beta_sum_and_poisson",
        ok,
        f"beta_checks={checked} poisson_residual={poisson.residual:.3e} wall={elapsed:.1f}s",
    )
    assert poisson.residual < 1e-6
    assert elapsed < 60.0


def test_criterion_09_l_value_oracles():
    t0 = time.perf_counter()
    worst_a = 0.0
    for M in (5, 7, 11, 101, 499):
        row = smoothed_row(None, M)
        for chi in enumerate_characters(M, "primitive"):
            dev = abs(l_value_dirichlet(chi) - smoothed_value(row, chi))
            if dev > worst_a:
                worst_a = dev
    seq = divisor_sequence(24_000_000)
    worst_b = 0.0
    for M in primes_in(5, 101):
        row = smoothed_row(seq, M)
        for chi in enumerate_characters(M, "primitive"):
            dev = abs(smoothed_value(row, chi) - l_value_dirichlet(chi) ** 2)
            if dev > worst_b:
                worst_b = dev
    elapsed = time.perf_counter() - t0
    ok = worst_a < 1e-6 and worst_b < 1e-5 and elapsed < 300.0
    _report(
        9,
        "l_value_oracles",
        ok,
        f"oracle_dev={worst_a:.3e} divisor_square_dev={worst_b:.3e} wall={elapsed:.1f}s",
    )
    assert worst_a < 1e-6
    assert worst_b < 1e-5
    assert elapsed < 300.0


def test_criterion_10_burgess_scaling(tmp_path):
    """Burgess-consistency of the quadratic-character sweep up to M = 3000.

    (a) The envelope E_b of |L(1/2,chi)| / M^(3/16) grows by less than a
    factor 10 from M = 100 to M = 3000.

    (b) The growth g_b of E_b is tied to the growth g_c of the envelope E_c
    of |L| / M^(1/4).  With f(m) = |L(1/2,chi_m)|, let m_b and m_b0 be the
    moduli where E_b attains its maximum up to 3000 and up to 100, and m_c,
    m_c0 the same for E_c.  Then

        g_b / g_c = [f(m_b) m_b^(-3/16) / (f(m_c) m_c^(-1/4))]
                  * [f(m_c0) m_c0^(-1/4) / (f(m_b0) m_b0^(-3/16))].

    Maximality of m_b against m_c, and of m_c0 against m_b0, bounds the
    first factor below by m_c^(1/16) and the second by m_b0^(-1/16);
    maximality of m_c against m_b, and of m_b0 against m_c0, bounds them
    above by m_b^(1/16) and m_c0^(-1/16).  Hence

        (m_c / m_b0)^(1/16) <= g_b / g_c <= (m_b / m_c0)^(1/16).

    Moreover g_b >= g_c always: if m_c <= 100 then g_c = 1 <= g_b, and
    otherwise m_c > 100 >= m_b0.  So g_b < g_c holds on no data, and a
    finite-range growth comparison cannot confirm a bound that carries an
    M^eps factor and an unspecified constant; (b) instead checks that the
    sweep's exponent, ratios and envelope agree with the raw L-values.

    The sweep's CSV, written to a temporary directory, must equal the
    committed tests/artifacts/burgess_quadratic_3000.csv byte for byte.
    """
    t0 = time.perf_counter()
    records = burgess_sweep("dirichlet", 3, 3000, chars="quadratic")
    csv_path = tmp_path / "burgess_quadratic_3000.csv"
    write_sweep_csv(records, csv_path)
    pinned = csv_path.read_bytes() == (ARTIFACTS / csv_path.name).read_bytes()

    ms, env = monotone_envelope(records)
    i100 = int(np.searchsorted(ms, 100, side="right")) - 1
    env_100, env_final = float(env[i100]), float(env[-1])

    conv: dict[int, float] = {}
    for r in records:
        conv[r.M] = max(conv.get(r.M, 0.0), abs(r.l_value) / r.M**0.25)
    cms = np.array(sorted(conv))
    cenv = np.maximum.accumulate(np.array([conv[m] for m in cms]))
    j100 = int(np.searchsorted(cms, 100, side="right")) - 1
    growth_b = env_final / env_100
    growth_c = float(cenv[-1]) / float(cenv[j100])

    # a running maximum first reaches its final value where the record was set
    m_b, m_b0 = int(ms[np.argmax(env)]), int(ms[np.argmax(env[: i100 + 1])])
    m_c, m_c0 = int(cms[np.argmax(cenv)]), int(cms[np.argmax(cenv[: j100 + 1])])
    lower = max(1.0, (m_c / m_b0) ** (1 / 16))
    upper = (m_b / m_c0) ** (1 / 16)
    relative = growth_b / growth_c

    elapsed = time.perf_counter() - t0
    bounded = env_final < 10.0 * env_100
    tied = lower * (1 - 1e-12) <= relative <= upper * (1 + 1e-12)
    ok = bounded and tied and pinned and elapsed < 600.0
    _report(
        10,
        "burgess_scaling",
        ok,
        f"rows={len(records)} env100={env_100:.6f} env_final={env_final:.6f} "
        f"growth={growth_b:.4f} convexity_growth={growth_c:.4f} "
        f"tie={lower:.4f}<={relative:.4f}<={upper:.4f} "
        f"m_b={m_b} m_b0={m_b0} m_c={m_c} m_c0={m_c0} "
        f"csv={csv_path.name} matches_artifact={pinned} wall={elapsed:.1f}s",
    )
    assert pinned, f"sweep CSV differs from tests/artifacts/{csv_path.name}"
    assert bounded, f"envelope exploded: {env_final:.4f} >= 10 * {env_100:.4f}"
    assert tied, (
        f"growth ratio {relative:.6f} (3/16-envelope {growth_b:.6f} over "
        f"1/4-envelope {growth_c:.6f}) lies outside [{lower:.6f}, {upper:.6f}] "
        f"set by the record moduli m_b={m_b} m_b0={m_b0} m_c={m_c} m_c0={m_c0}"
    )
    assert elapsed < 600.0


def test_criterion_11_transform_decay():
    t0 = time.perf_counter()
    V, W = plateau_window(), bump_window()
    v_rep = decay_check(lambda x: fourier_dual(V, x), 4.0, np.geomspace(1.0, 100.0, 13))
    seq = divisor_sequence(6000)
    w_rep = decay_check(
        lambda y: voronoi_transform_batch(seq, -1, W, y), 4.0, np.geomspace(1.0, 50.0, 9)
    )
    resids = [
        voronoi_step_check(seq, 1, 3, 40.0, quad_order=3, panel_scale=s).details["relative"]
        for s in (1.0, 2.0, 4.0, 8.0)
    ]
    ratios = []
    for coarse, fine in zip(resids, resids[1:]):
        if coarse > 1e-7:  # stop rating refinements at the quadrature floor
            ratios.append(coarse / fine)
    elapsed = time.perf_counter() - t0
    ok = (
        v_rep.finite
        and w_rep.finite
        and v_rep.constant > 0.0
        and w_rep.constant > 0.0
        and bool(ratios)
        and all(r >= 4.0 for r in ratios)
        and elapsed < 60.0
    )
    _report(
        11,
        "transform_decay",
        ok,
        f"fourier_C={v_rep.constant:.3e} voronoi_C={w_rep.constant:.3e} "
        f"refinement_ratios={[f'{r:.1f}' for r in ratios]} wall={elapsed:.1f}s",
    )
    assert v_rep.finite and v_rep.constant > 0.0
    assert w_rep.finite and w_rep.constant > 0.0
    assert ratios and all(r >= 4.0 for r in ratios), resids
    assert elapsed < 60.0
