"""Command-line driver for the library.

Subcommands: verify (identity suites), sums (single sum evaluation) and
sweep (Burgess-ratio CSV over a prime range). All flags are --key=value; a
config file of `key = value` lines may supply defaults, with command-line
flags taking precedence and unknown keys rejected. The CLI performs no
arithmetic of its own: every printed number comes from a library call, so
identical (config, seed) pairs produce byte-identical report and CSV files.

Exit codes: 0 success; 1 at least one failed check; 2 a usage or parameter
error (ValueError); 3 a computation that ran and did not converge
(ArithmeticError); 4 an environment, I/O or memory error (OSError,
MemoryError). Codes 2-4 print one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

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
from .modular import MAX_MODULUS

_SUITES = {
    "appendix": lambda ns: appendix_suite(mmax=ns.mmax, samples=ns.samples, seed=ns.seed),
    "pipeline": lambda ns: pipeline_suite(
        M=ns.M, char_index=ns.char, kind=ns.coeff, N=ns.N, L=ns.L, P=ns.P
    ),
    "transforms": lambda ns: transforms_suite(),
}

# kind: (flags in call order, the flag holding the modulus, method label, sum,
# closed form or None). A leading (M, char) pair reaches the sum as one
# character.
_SUMS = {
    "gauss": (("M", "char"), "M", "character_transform", gauss_sum, None),
    "ramanujan": (("M", "a"), "M", "closed_form", ramanujan_sum, None),
    "kloosterman": (("a", "b", "c"), "c", "direct", kloosterman_sum, None),
    "frak_k": (
        ("M", "char", "r", "ell", "n"), "M", "brute_force", frak_k, frak_k_closed_form
    ),
    "frak_c": (
        ("M", "char", "r1", "r2", "alpha", "beta", "n"),
        "M",
        "brute_force",
        frak_c,
        frak_c_closed_form,
    ),
    "trivial_delta": (("n", "m", "q"), "q", "divisor_expansion", trivial_delta, None),
}

# every option a subcommand accepts, with its parser and its default (None:
# no default); config files may set exactly these keys
_OPTIONS = {
    "verify": {
        "suite": (str, None),
        "mmax": (int, 47),
        "samples": (int, 150),
        "seed": (int, 1),
        "M": (int, 11),
        "char": (int, 1),
        "coeff": (str, "divisor"),
        "N": (float, 20.0),
        "L": (float, 3.0),
        "P": (float, 5.0),
        "out": (str, None),
    },
    "sums": {
        "kind": (str, None),
        # the flags of every sum kind, in the order the usage line lists them
        **dict.fromkeys(
            ("M", "char", "a", "b", "c", "q", "n", "m", "r", "r1", "r2", "alpha", "beta"), (int, None)
        ),
        "ell": (int, 1),
    },
    "sweep": {
        "kind": (str, None),
        "pmin": (int, None),
        "pmax": (int, None),
        "chars": (str, "all"),
        "coeff": (str, None),
        "out": (str, None),
    },
}

SUITES = tuple(_SUITES)
SUM_KINDS = tuple(_SUMS)


class ConfigError(ValueError):
    """Bad or missing command-line/config-file parameter."""


def _choose(table: dict, what: str, name: str):
    """table[name], or a ConfigError listing the names table accepts."""
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}; choose from {', '.join(table)}")
    return table[name]


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt_value(v) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return _fmt(v.real)
    return f"{v.real:.15g}{v.imag:+.15g}j"


def _load_config_file(path: str, command: str, ns: argparse.Namespace) -> None:
    """Fill options the command line left unset from `key = value` lines."""
    allowed = _OPTIONS[command]
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
                setattr(ns, key, allowed[key][0](value))
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
        checks += _choose(_SUITES, "suite", suite)(ns)
    reports = run_suite(checks)
    lines = [rep.line() for rep in reports]
    for rep, line in zip(reports, lines):
        print(line)
        if "error" in rep.details:
            print(f"error: {rep.name}: {rep.details['error']}", file=sys.stderr)
    if ns.out:
        Path(ns.out).write_text("\n".join(lines) + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_sums(ns: argparse.Namespace) -> int:
    _require(ns, "kind")
    flags, modulus_flag, method, fn, closed_form = _choose(_SUMS, "sum kind", ns.kind)
    _require(ns, *flags)
    modulus = getattr(ns, modulus_flag)
    if modulus > MAX_MODULUS:
        raise ConfigError(f"--{modulus_flag} must be at most {MAX_MODULUS}, got {modulus}")
    args = [getattr(ns, flag) for flag in flags]
    if flags[:2] == ("M", "char"):
        args[:2] = [character(*args[:2])]
    rows = [(method, fn(*args))]
    if closed_form is not None:
        rows.append(("closed_form", closed_form(*args)))
    for method, result in rows:
        if result is None:
            continue
        mag = abs(complex(result))
        print(
            f"{ns.kind} method={method} value={_fmt_value(result)} "
            f"abs={_fmt(mag)} abs_over_sqrt_modulus={_fmt(mag / math.sqrt(modulus))}"
        )
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    _require(ns, "kind", "pmin", "pmax")
    records = burgess_sweep(ns.kind, ns.pmin, ns.pmax, chars=ns.chars, coeff=ns.coeff)
    write_sweep_csv(records, ns.out or sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delta-sums",
        description="Exponential-sum identities, verification suites, and Burgess sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None)
        for key, (parse, _) in options.items():
            p.add_argument(f"--{key}", type=parse, default=None)
    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "sums": cmd_sums,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config:
            _load_config_file(ns.config, ns.command, ns)
        for key, (_, default) in _OPTIONS[ns.command].items():
            if getattr(ns, key) is None:
                setattr(ns, key, default)
        return _HANDLERS[ns.command](ns)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3 if isinstance(exc, ArithmeticError) else 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
