"""Coefficient sequences, L-values, amplifiers and sweeps."""

import io
import math
import random
import sys
import threading
from collections import OrderedDict

import mpmath as mp
import numpy as np
import pytest
import sympy

from deltasums import lfunctions
from deltasums.characters import PrincipalCharacterNotAllowed, character
from deltasums.lfunctions import (
    CSV_HEADER,
    DEFAULT_TAU_BOUND,
    DegenerateAmplifier,
    OutOfCacheRange,
    afe_supremum_probe,
    amplifier_lstar,
    burgess_sweep,
    coeff_eval,
    default_cache_path,
    delta_sequence,
    divisor_sequence,
    hecke_relation_check,
    hurwitz_zeta,
    l_value_dirichlet,
    l_value_twist,
    load_tau_table,
    make_amplifier,
    monotone_envelope,
    rankin_selberg_average,
    ramanujan_tau_table,
    save_tau_table,
    smoothed_sum,
    write_sweep_csv,
)
from deltasums.lfunctions import _character_transform, _class_vector
from deltasums.transforms import bump_window

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


def test_tau_table_matches_naive_eta_product():
    degree = 300
    poly = [1] + [0] * (degree - 1)  # prod (1 - q^m)^24, degrees 0..degree-1
    for m in range(1, degree):
        for _ in range(24):
            for i in range(degree - 1, m - 1, -1):
                poly[i] -= poly[i - m]
    assert ramanujan_tau_table(degree, cache=None) == poly


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


def test_divisor_coefficients_vs_sympy(div_seq, seed=10):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(1, 300_000)
        assert coeff_eval(div_seq, n) == int(sympy.divisor_count(n))


def test_lambda_one_is_one(div_seq, delta_seq):
    assert coeff_eval(div_seq, 1) == 1.0
    assert coeff_eval(delta_seq, 1) == 1.0


def test_delta_normalization(delta_seq):
    # lam(n) = tau(n) / n^{11/2}
    assert abs(coeff_eval(delta_seq, 2) - (-24.0) / 2**5.5) < 1e-15
    assert delta_seq.weight == 12


def test_deligne_bound_at_primes(delta_seq):
    for p in sympy.primerange(2, 10_000):
        assert abs(coeff_eval(delta_seq, p)) <= 2.0


def test_multiplicativity_500_coprime_pairs(div_seq, delta_seq, seed=15):
    rng = random.Random(seed)
    for seq in (div_seq, delta_seq):
        done = 0
        while done < 500:
            m = rng.randrange(2, 500)
            n = rng.randrange(2, 500)
            if math.gcd(m, n) != 1:
                continue
            lhs = coeff_eval(seq, m * n)
            rhs = coeff_eval(seq, m) * coeff_eval(seq, n)
            assert abs(lhs - rhs) < 1e-10
            done += 1


def test_hecke_relation(div_seq, delta_seq, seed=16):
    rng = random.Random(seed)
    for seq in (div_seq, delta_seq):
        for _ in range(120):
            r = rng.randrange(1, 2000)
            ell = int(rng.choice([2, 3, 5, 7, 11, 13]))
            assert hecke_relation_check(seq, r, ell)


def test_coeff_eval_out_of_range(div_seq):
    with pytest.raises(OutOfCacheRange):
        coeff_eval(div_seq, 300_001)
    with pytest.raises(OutOfCacheRange):
        coeff_eval(div_seq, 0)


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
        for k in range(1, M - 1):
            chi = character(M, k)
            a = l_value_dirichlet(chi, "hurwitz_oracle")
            b = l_value_dirichlet(chi, "smoothed")
            assert abs(a - b) < 1e-6


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
    lhs = l_value_twist(div_seq, chi, "smoothed")
    rhs = l_value_dirichlet(chi) ** 2
    assert abs(lhs - rhs) < 1e-5
    assert abs(l_value_twist(div_seq, chi, "dirichlet_square") - rhs) < 1e-15


def test_twist_dirichlet_square_requires_divisor(delta_seq):
    with pytest.raises(ValueError):
        l_value_twist(delta_seq, character(5, 1), "dirichlet_square")


def test_twist_conjugation(delta_seq):
    chi = character(5, 1)
    a = l_value_twist(delta_seq, chi)
    b = l_value_twist(delta_seq, chi.conjugate())
    assert abs(a - b.conjugate()) < 1e-6


def test_twist_refuses_insufficient_cache():
    # the doubling ladder must not return a still-moving value
    small = divisor_sequence(2048)
    with pytest.raises(OutOfCacheRange):
        l_value_twist(small, character(101, 1))


def test_smoothed_sum_direct_loop(div_seq):
    chi = character(5, 1)
    W = bump_window()
    N = 10.0
    direct = sum(
        coeff_eval(div_seq, n) * complex(chi.values(np.array([n]))[0]) * W(n / N)
        for n in range(10, 21)
    )
    assert abs(smoothed_sum(div_seq, chi, N, W) - direct) < 1e-12


def test_smoothed_sum_empty_support(div_seq):
    assert smoothed_sum(div_seq, character(5, 1), 0.4, bump_window()) == 0


def test_make_amplifier_fields(div_seq):
    amp = make_amplifier(div_seq, 3, 7)
    assert amp.ells == (3, 5) and amp.ps == (7, 11, 13)
    assert amp.pstar == 3
    # divisor lam(ell) = 2 so lstar = 4 |ells|
    assert abs(amp.lstar - 4.0 * len(amp.ells)) < 1e-12


def test_make_amplifier_disjointness_overlap(div_seq):
    # dyadic blocks [3,6] and [5,10] collide at 5; the collision must leave
    # the detection set, never the amplifier set
    amp = make_amplifier(div_seq, 3, 5)
    assert amp.ells == (3, 5)
    assert 5 not in amp.ps
    assert set(amp.ells).isdisjoint(amp.ps)


def test_make_amplifier_exclude_and_degenerate(div_seq):
    amp = make_amplifier(div_seq, 3, 7, exclude=5)
    assert 5 not in amp.ells and 5 not in amp.ps
    with pytest.raises(DegenerateAmplifier):
        make_amplifier(div_seq, 3.2, 7, exclude=5)


def test_amplifier_lstar_report(div_seq):
    rep = amplifier_lstar(div_seq, 100)
    assert rep.lstar == 4.0 * len(rep.ells)
    assert 0.1 < rep.ratio_to_scale < 10.0
    rep2 = amplifier_lstar(div_seq, 2)
    assert rep2.ells == (2, 3)


def test_rankin_selberg_average(div_seq, delta_seq):
    rep = rankin_selberg_average(delta_seq, 1000.0)
    assert 0.05 < rep.ratio < 20.0
    rep_div = rankin_selberg_average(div_seq, 1000.0)
    assert rep_div.value > rep.value  # tau(n)^2 dominates lam_Delta(n)^2 on average
    assert rankin_selberg_average(div_seq, 0.1).value == 0.0


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
    with pytest.raises(ValueError):
        burgess_sweep("twist", 5, 600)
    with pytest.raises(ValueError):
        burgess_sweep("maass", 5, 50)
    with pytest.raises(ValueError, match="bogus"):
        burgess_sweep("twist", 5, 7, method="bogus")


def test_burgess_sweep_twist_kinds():
    recs = burgess_sweep("twist", 5, 20, chars="quadratic", coeff="delta_form")
    assert all(r.kind == "delta_form" and r.exponent == 0.375 for r in recs)
    recs2 = burgess_sweep("twist", 5, 20, chars=2, coeff="divisor")
    assert all(r.kind == "divisor" for r in recs2)
    assert {r.char_index for r in recs2} <= {1, 2}


def test_twist_sweep_rows_match_per_character_dot(div_seq):
    # the sweep's row is the smoothed series at twice the effective length
    # 50 M log M, the character entering through its value table
    recs = burgess_sweep("twist", 5, 31, seq=div_seq)
    assert len(recs) == sum(p - 2 for p in sympy.primerange(5, 32))
    for r in recs:
        X = 2.0 * (50.0 * r.M * math.log(r.M))
        ref = np.dot(character(r.M, r.char_index).value_table(), _class_vector(div_seq, r.M, X))
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


def test_class_vector_cache_shared_by_threads(monkeypatch):
    # a cache of one entry evicts on every insert, so threads that share some
    # keys and not others keep hitting, inserting and evicting concurrently
    monkeypatch.setattr(lfunctions, "_CLASS_VECTOR_CACHE", OrderedDict())
    monkeypatch.setattr(lfunctions, "_CLASS_VECTOR_CACHE_MAX", 1)
    keys = [(M, X) for M in (5, 7, 11) for X in (30.0, 45.0)]
    ref = {key: _class_vector(None, *key).copy() for key in keys}
    results, errors = [], []

    def work(offset):
        try:
            for i in range(300):
                key = keys[(i + offset) % len(keys)]
                results.append((key, _class_vector(None, *key)))
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(j // 2,)) for j in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 6 * 300
    assert all(np.array_equal(vec, ref[key]) for key, vec in results)
    assert len(lfunctions._CLASS_VECTOR_CACHE) <= 1


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


def test_monotone_envelope_nondecreasing():
    recs = burgess_sweep("dirichlet", 5, 199, chars="quadratic")
    ms, env = monotone_envelope(recs)
    assert list(ms) == sorted(set(r.M for r in recs))
    assert np.all(np.diff(env) >= 0)
    assert env[0] == recs[0].ratio


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


def test_default_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DELTA_SUMS_CACHE", str(tmp_path / "custom.txt"))
    assert default_cache_path() == tmp_path / "custom.txt"
    seq = delta_sequence(64, cache="auto")
    assert (tmp_path / "custom.txt").is_file()
    # second build must come from the file and agree
    seq2 = delta_sequence(64, cache="auto")
    assert np.array_equal(seq.lam, seq2.lam)


def test_afe_probe(div_seq):
    probe = afe_supremum_probe(character(11, 5), seq=div_seq)
    assert probe.M == 11 and probe.sup_ratio > 0
    assert math.isnan(probe.l_value_abs)
    probe2 = afe_supremum_probe(character(11, 5))
    assert abs(probe2.l_value_abs - abs(l_value_dirichlet(character(11, 5)))) < 1e-12
