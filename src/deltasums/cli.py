"""Command-line driver for the library.

Subcommands: verify (identity suites), sums (single sum evaluation), sweep
(Burgess-ratio CSV over a prime range), bench (throughput timings). All
flags are --key=value; a config file of `key = value` lines may supply
defaults, with command-line flags taking precedence and unknown keys
rejected. The CLI performs no arithmetic of its own: every printed number
comes from a library call, so identical (config, seed) pairs produce
byte-identical report and CSV files. Timings are the one exception and are
labeled as such.

Exit codes: 0 success, 1 at least one failed check, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .characters import character
from .expsums import (
    frak_c,
    frak_c_closed_form,
    frak_k,
    frak_k_closed_form,
    gauss_sum,
    kloosterman_sum,
    ramanujan_sum,
    trivial_delta,
)
from .identities import appendix_suite, pipeline_suite, run_suite, transforms_suite
from .lfunctions import burgess_sweep, write_sweep_csv
from .modular import is_prime

SUITES = ("appendix", "pipeline", "transforms")
SUM_KINDS = ("gauss", "ramanujan", "kloosterman", "frak_k", "frak_c", "trivial_delta")
BENCH_GRID = (1009, 10007, 100003)

# every option a subcommand accepts, with its parser; config files may set
# exactly these keys
_OPTION_TYPES = {
    "verify": {
        "suite": str,
        "mmax": int,
        "samples": int,
        "seed": int,
        "jobs": int,
        "M": int,
        "char": int,
        "coeff": str,
        "N": float,
        "L": float,
        "P": float,
        "out": str,
    },
    "sums": {
        "kind": str,
        "M": int,
        "char": int,
        "a": int,
        "b": int,
        "c": int,
        "q": int,
        "n": int,
        "m": int,
        "r": int,
        "r1": int,
        "r2": int,
        "alpha": int,
        "beta": int,
        "ell": int,
    },
    "sweep": {
        "kind": str,
        "pmin": int,
        "pmax": int,
        "chars": str,
        "coeff": str,
        "method": str,
        "out": str,
        # accepted so that existing config files keep working; a sweep is one
        # character transform per modulus and has no work to spread
        "jobs": int,
    },
    "bench": {"kind": str, "M": int, "samples": int, "seed": int},
}

_DEFAULTS = {
    "verify": {
        "mmax": 47,
        "samples": 150,
        "seed": 1,
        "jobs": 1,
        "M": 11,
        "char": 1,
        "coeff": "divisor",
        "N": 20.0,
        "L": 3.0,
        "P": 5.0,
    },
    "sums": {"ell": 1},
    "sweep": {"chars": "all", "coeff": "divisor", "jobs": 1},
    "bench": {"samples": 200, "seed": 1},
}


class ConfigError(ValueError):
    """Bad or missing command-line/config-file parameter."""


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt_value(v) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return _fmt(v.real)
    return f"{v.real:.15g}{v.imag:+.15g}j"


def _load_config_file(path: str, command: str, ns: argparse.Namespace) -> None:
    """Fill options the command line left unset from `key = value` lines."""
    allowed = _OPTION_TYPES[command]
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        if getattr(ns, key) is None:
            try:
                setattr(ns, key, allowed[key](value))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key}")


def _require(ns: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(ns, k) is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join('--' + k for k in missing)}")


def cmd_verify(ns: argparse.Namespace) -> int:
    _require(ns, "suite")
    checks = []
    for suite in ns.suite.split(","):
        if suite == "appendix":
            checks += appendix_suite(mmax=ns.mmax, samples=ns.samples, seed=ns.seed)
        elif suite == "pipeline":
            checks += pipeline_suite(
                M=ns.M, char_index=ns.char, kind=ns.coeff, N=ns.N, L=ns.L, P=ns.P
            )
        elif suite == "transforms":
            checks += transforms_suite()
        else:
            raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    reports = run_suite(checks, jobs=ns.jobs)
    lines = [rep.line() for rep in reports]
    for line in lines:
        print(line)
    if ns.out:
        Path(ns.out).write_text("\n".join(lines) + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _sums_rows(ns: argparse.Namespace) -> list:
    """(method, value, modulus) rows for the requested sum."""
    kind = ns.kind
    if kind == "gauss":
        _require(ns, "M", "char")
        return [("direct", gauss_sum(character(ns.M, ns.char)), ns.M)]
    if kind == "ramanujan":
        _require(ns, "M", "a")
        return [("closed_form", ramanujan_sum(ns.M, ns.a), ns.M)]
    if kind == "kloosterman":
        _require(ns, "a", "b", "c")
        return [("direct", kloosterman_sum(ns.a, ns.b, ns.c), ns.c)]
    if kind == "trivial_delta":
        _require(ns, "n", "m", "q")
        return [("divisor_expansion", trivial_delta(ns.n, ns.m, ns.q), ns.q)]
    if kind == "frak_k":
        _require(ns, "M", "char", "r", "ell", "n")
        chi = character(ns.M, ns.char)
        rows = [("brute_force", frak_k(chi, ns.r, ns.ell, ns.n).value, ns.M)]
        closed = frak_k_closed_form(chi, ns.r, ns.ell, ns.n)
        if closed is not None:
            rows.append(("closed_form", closed.value, ns.M))
        return rows
    if kind == "frak_c":
        _require(ns, "M", "char", "r1", "r2", "alpha", "beta", "n")
        chi = character(ns.M, ns.char)
        rows = [("brute_force", frak_c(chi, ns.r1, ns.r2, ns.alpha, ns.beta, ns.n).value, ns.M)]
        closed = frak_c_closed_form(chi, ns.r1, ns.r2, ns.alpha, ns.beta, ns.n)
        if closed is not None:
            rows.append(("closed_form", closed.value, ns.M))
        return rows
    raise ConfigError(f"unknown sum kind {kind!r}; choose from {', '.join(SUM_KINDS)}")


def cmd_sums(ns: argparse.Namespace) -> int:
    _require(ns, "kind")
    for method, value, modulus in _sums_rows(ns):
        mag = abs(complex(value))
        print(
            f"{ns.kind} method={method} value={_fmt_value(value)} "
            f"abs={_fmt(mag)} abs_over_sqrt_modulus={_fmt(mag / math.sqrt(modulus))}"
        )
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    _require(ns, "kind", "pmin", "pmax")
    records = burgess_sweep(
        ns.kind, ns.pmin, ns.pmax, chars=ns.chars, coeff=ns.coeff, method=ns.method
    )
    write_sweep_csv(records, ns.out or sys.stdout)
    return 0


def _bench_workload(kind: str, M: int, samples: int, seed: int):
    """Pre-drawn deterministic arguments and the callable to time."""
    rng = np.random.default_rng(seed)
    if kind in ("gauss", "frak_k", "frak_c"):
        # cycle a handful of characters so value-table caching stays bounded
        ks = [1 + int(rng.integers(M - 2)) for _ in range(8)]
        chis = [character(M, k) for k in ks]
    if kind == "gauss":
        args = [(chis[i % 8],) for i in range(samples)]
        return args, lambda chi: gauss_sum(chi)
    if kind == "ramanujan":
        args = [(M, int(rng.integers(M))) for _ in range(samples)]
        return args, lambda m, a: ramanujan_sum(m, a)
    if kind == "kloosterman":
        args = [(int(rng.integers(1, M)), int(rng.integers(1, M)), M) for _ in range(samples)]
        return args, lambda a, b, c: kloosterman_sum(a, b, c)
    if kind == "trivial_delta":
        args = [
            (int(rng.integers(1, 4 * M)), int(rng.integers(1, 4 * M)), M)
            for _ in range(samples)
        ]
        return args, lambda n, m, q: trivial_delta(n, m, q)
    if kind == "frak_k":
        args = [
            (chis[i % 8], int(rng.integers(1, M)), int(rng.integers(1, M)), int(rng.integers(0, M)))
            for i in range(samples)
        ]
        return args, lambda chi, r, ell, n: frak_k(chi, r, ell, n)
    if kind == "frak_c":
        args = [
            (
                chis[i % 8],
                int(rng.integers(1, M)),
                int(rng.integers(1, M)),
                int(rng.integers(1, M)),
                int(rng.integers(1, M)),
                int(rng.integers(0, M)),
            )
            for i in range(samples)
        ]
        return args, lambda chi, r1, r2, a, b, n: frak_c(chi, r1, r2, a, b, n)
    raise ConfigError(f"unknown sum kind {kind!r}; choose from {', '.join(SUM_KINDS)}")


def cmd_bench(ns: argparse.Namespace) -> int:
    _require(ns, "kind")
    if ns.kind not in SUM_KINDS:
        raise ConfigError(f"unknown sum kind {ns.kind!r}; choose from {', '.join(SUM_KINDS)}")
    moduli = [ns.M] if ns.M is not None else list(BENCH_GRID)
    for M in moduli:
        if not is_prime(M) or M <= 3:
            raise ConfigError(f"bench modulus must be a prime > 3, got {M}")
    print("# timings vary run to run; the work per row is deterministic in (kind, M, seed)")
    for M in moduli:
        args, fn = _bench_workload(ns.kind, M, ns.samples, ns.seed)
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        dt = time.perf_counter() - t0
        rate = ns.samples / dt if dt > 0 else float("inf")
        print(
            f"kind={ns.kind} M={M} samples={ns.samples} wall_s={dt:.4f} "
            f"per_sum_ms={1e3 * dt / ns.samples:.4f} sums_per_s={rate:.1f}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delta-sums",
        description="Exponential-sum identities, verification suites, and Burgess sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTION_TYPES.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None)
        for key, caster in options.items():
            p.add_argument(f"--{key}", type=caster, default=None)
    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "sums": cmd_sums,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config:
            _load_config_file(ns.config, ns.command, ns)
        for key, value in _DEFAULTS[ns.command].items():
            if getattr(ns, key) is None:
                setattr(ns, key, value)
        return _HANDLERS[ns.command](ns)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
