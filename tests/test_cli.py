"""Exercises the delta-sums command line in process."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deltasums
from deltasums import cli
from deltasums.cli import main
from deltasums.identities import Check

REPORT_LINE = re.compile(
    r"^[a-z0-9_:]+,[0-9a-f]{12},\d\.\d{9}e[+-]\d{2,3},\d\.\d{9}e[+-]\d{2,3},"
    r"\d\.\d{9}e[+-]\d{2,3},(pass|fail)$"
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on its own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _subprocess_env(**extra):
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(deltasums.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def test_verify_appendix_small():
    code, out, err = run(["verify", "--suite=appendix", "--mmax=20", "--samples=40"])
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if "," in ln]
    assert lines
    for ln in lines:
        assert REPORT_LINE.match(ln), ln
        assert ln.endswith(",pass")


def test_verify_reruns_are_byte_identical():
    a = run(["verify", "--suite=appendix", "--mmax=20", "--samples=40"])
    b = run(["verify", "--suite=appendix", "--mmax=20", "--samples=40"])
    assert a == b


def test_verify_unknown_suite():
    code, _, err = run(["verify", "--suite=nonsense"])
    assert code == 2
    assert "suite" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--suite=pipeline", "--N=0"], "N"),
        (["--suite=appendix", "--samples=0"], "samples"),
        (["--suite=appendix", "--mmax=4"], "mmax"),
        (["--suite=pipeline", "--M=100019"], "M"),
        (["--suite=pipeline", "--P=500001"], "2P"),
        # detection tables of 16,687,617 and 9,074,970 values, past the 5M cap
        (["--suite=pipeline", "--N=2000"], "N"),
        (["--suite=appendix,pipeline", "--N=20", "--L=200"], "N"),
        (["--suite=pipeline", "--P=nan"], "P"),
        (["--suite=pipeline", "--P=-5"], "P"),
        (["--suite=pipeline", "--L=-3"], "L"),
    ],
)
def test_verify_refuses_bad_parameters_before_any_check(argv, name):
    code, out, err = run(["verify"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be") and err.count("\n") == 1


def test_verify_refuses_a_window_without_integers_before_any_check():
    code, out, err = run(["verify", "--suite=pipeline", "--N=0.5"])
    assert (code, out) == (2, "")
    assert err == "error: window support contains no integers at this scale\n"


def test_verify_prints_why_a_check_raised(monkeypatch):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._SUITES, "transforms", lambda ns: [Check("transforms:boom", boom)])
    code, out, err = run(["verify", "--suite=transforms"])
    assert code == 1
    assert out.startswith("transforms:boom,") and out.endswith(",nan,inf,0.000000000e+00,fail\n")
    assert err == "error: transforms:boom: RuntimeError('boom')\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite=appendix", "--mmax=13", "--samples=10"],
        ["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=7"],
    ],
)
def test_unwritable_out_exits_4(tmp_path, argv):
    code, _, err = run(argv + [f"--out={tmp_path / 'missing' / 'x.csv'}"])
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_computation_that_does_not_converge_exits_3(monkeypatch):
    def diverge(*args, **kwargs):
        raise ArithmeticError("no convergence")

    monkeypatch.setattr(cli, "burgess_sweep", diverge)
    code, _, err = run(["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=7"])
    assert code == 3
    assert err == "error: no convergence\n"


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "error: MemoryError\n"),
        (MemoryError("Unable to allocate 96 GiB"), "error: Unable to allocate 96 GiB\n"),
    ],
)
def test_memory_error_exits_4(monkeypatch, exc, line):
    def exhaust(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "burgess_sweep", exhaust)
    code, _, err = run(["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=7"])
    assert code == 4
    assert err == line


def test_verify_delta_form_ignores_a_corrupt_file_at_delta_sums_cache(tmp_path, monkeypatch):
    # the package reads no environment variable: the file is neither read nor rewritten
    cache = tmp_path / "tau_table.txt"
    cache.write_text("6000\n1\n-24\nnot a number\n")
    before = cache.read_bytes()
    monkeypatch.setenv("DELTA_SUMS_CACHE", str(cache))
    code, out, err = run(["verify", "--suite=pipeline", "--coeff=delta_form"])
    assert code == 0, err
    assert all(ln.endswith(",pass") for ln in out.splitlines() if "," in ln)
    assert cache.read_bytes() == before


_NO_FILES_SCRIPT = """
import sys
from deltasums import cli, delta_sequence
codes = [
    cli.main(["verify", "--suite=pipeline", "--coeff=delta_form"]),
    cli.main(["sweep", "--kind=twist", "--coeff=delta", "--pmin=5", "--pmax=50"]),
]
assert delta_sequence(64).bound == 64
sys.exit(max(codes))
"""


def test_default_runs_write_no_file(tmp_path):
    # verify, a delta-form sweep and a default delta_sequence leave nothing in
    # HOME, in the working directory or at DELTA_SUMS_CACHE
    home, work, cache = tmp_path / "home", tmp_path / "work", tmp_path / "cache" / "tau.txt"
    home.mkdir()
    work.mkdir()
    cache.parent.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _NO_FILES_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env=_subprocess_env(HOME=str(home), DELTA_SUMS_CACHE=str(cache)),
        cwd=work,
    )
    assert done.returncode == 0, done.stderr
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_sums_ramanujan():
    code, out, _ = run(["sums", "--kind=ramanujan", "--M=7", "--a=0"])
    assert code == 0
    assert out.startswith("ramanujan method=closed_form value=6 abs=6 ")


def test_sums_ramanujan_is_exact():
    code, out, _ = run(["sums", "--kind=ramanujan", "--M=12", "--a=3"])
    assert code == 0
    assert out.startswith("ramanujan method=closed_form value=0 abs=0 ")
    # an argument past 2^63 is reduced mod M before any array
    code, out, _ = run(["sums", "--kind=ramanujan", "--M=30030", "--a=300300000000000000000000"])
    assert code == 0
    assert out.startswith("ramanujan method=closed_form value=5760 abs=5760 ")
    code, _, err = run(["sums", "--kind=ramanujan", "--M=0", "--a=1"])
    assert code == 2 and err == "error: ramanujan_sum requires M >= 1\n"


def test_sums_gauss_magnitude():
    code, out, _ = run(["sums", "--kind=gauss", "--M=5", "--char=2"])
    assert code == 0
    assert "abs_over_sqrt_modulus=1\n" in out


def test_sums_frak_k_prints_both_methods():
    code, out, _ = run(
        ["sums", "--kind=frak_k", "--M=5", "--char=1", "--r=2", "--ell=1", "--n=5"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("frak_k method=brute_force value=0+1j ")
    assert lines[1].startswith("frak_k method=closed_form value=0+1j ")


def test_sums_frak_c_methods_agree():
    code, out, _ = run(
        [
            "sums", "--kind=frak_c", "--M=5", "--char=1",
            "--r1=1", "--r2=2", "--alpha=1", "--beta=1", "--n=3",
        ]
    )
    assert code == 0
    values = [ln.split(" value=")[1].split(" ")[0] for ln in out.splitlines()]
    assert len(values) == 2 and values[0] == values[1]


def test_sums_trivial_delta_and_kloosterman():
    code, out, _ = run(["sums", "--kind=trivial_delta", "--n=7", "--m=7", "--q=5"])
    assert code == 0 and " value=1 " in out
    code, out, _ = run(["sums", "--kind=kloosterman", "--a=1", "--b=1", "--c=5"])
    assert code == 0 and "value=0.381966011250105" in out


def test_sums_refuses_a_huge_modulus_at_once():
    # enumerating the units mod 10^23 would never finish
    argv = ["sums", "--kind=kloosterman", "--a=1", "--b=1", f"--c={10**23}"]
    done = subprocess.run(
        [sys.executable, "-m", "deltasums.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=_subprocess_env(),
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: --c must be at most {cli.MAX_MODULUS}, got {10**23}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind=kloosterman", "--a=1", "--b=1", "--c={}"],
        ["--kind=trivial_delta", "--n=1", "--m=1", "--q={}"],
        ["--kind=gauss", "--M={}", "--char=1"],
    ],
)
def test_sums_modulus_bound(argv):
    code, out, _ = run(["sums"] + [a.format(cli.MAX_MODULUS) for a in argv])
    assert code == 0 and out
    code, out, err = run(["sums"] + [a.format(cli.MAX_MODULUS + 1) for a in argv])
    assert code == 2 and out == ""
    assert f"must be at most {cli.MAX_MODULUS}" in err


def test_sums_missing_parameters():
    code, _, err = run(["sums", "--kind=kloosterman", "--a=1", "--b=1"])
    assert code == 2
    assert "--c" in err


def test_sums_unknown_kind():
    code, _, err = run(["sums", "--kind=nonsense", "--M=5"])
    assert code == 2
    assert "unknown sum kind" in err


def test_sweep_csv_schema(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        ["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=11", f"--out={out_path}"]
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "M,char_index,kind,re_L,im_L,abs_L,exponent,ratio"
    # p - 2 non-principal characters per prime
    assert len(lines) == 1 + sum(p - 2 for p in (5, 7, 11))
    assert out == ""


def test_sweep_empty_range(tmp_path):
    out_path = tmp_path / "empty.csv"
    code, _, _ = run(["sweep", "--kind=dirichlet", "--pmin=24", "--pmax=28", f"--out={out_path}"])
    assert code == 0
    assert out_path.read_text().strip() == "M,char_index,kind,re_L,im_L,abs_L,exponent,ratio"


def test_sweep_limits():
    code, _, err = run(["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=20000"])
    assert code == 2 and "10000" in err
    code, _, err = run(["sweep", "--kind=maass", "--pmin=5", "--pmax=11"])
    assert code == 2
    code, _, err = run(["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=11", "--chars=abc"])
    assert err == "error: chars must be all, quadratic or a positive integer, got 'abc'\n"
    assert code == 2
    # an empty prime range does not excuse a bad coefficient kind
    code, out, err = run(["sweep", "--kind=twist", "--pmin=24", "--pmax=28", "--coeff=bogus"])
    assert code == 2 and out == ""
    assert err == "error: unknown coefficient kind 'bogus'\n"


def test_dirichlet_sweep_refuses_coeff():
    # --coeff selects the twisted form; a Dirichlet sweep has none to select
    code, out, err = run(["sweep", "--kind=dirichlet", "--coeff=delta", "--pmin=5", "--pmax=5"])
    assert code == 2 and out == ""
    assert err == "error: a dirichlet sweep takes no coefficient kind, got 'delta'\n"


def test_sweep_twist_delta_forced_zero():
    code, out, err = run(
        ["sweep", "--kind=twist", "--coeff=delta", "--pmin=103", "--pmax=103", "--chars=quadratic"]
    )
    assert code == 0, err
    header, row = out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["M"] == "103" and fields["kind"] == "delta_form"
    assert float(fields["abs_L"]) < 1e-12


def test_config_file_fills_unset_flags(tmp_path):
    cfg = tmp_path / "sums.cfg"
    cfg.write_text("kind = ramanujan\nM = 7\na = 0\n")
    direct = run(["sums", "--kind=ramanujan", "--M=7", "--a=0"])
    via_file = run(["sums", f"--config={cfg}"])
    assert via_file == direct


def test_config_file_flag_precedence(tmp_path):
    cfg = tmp_path / "sums.cfg"
    cfg.write_text("kind = ramanujan\nM = 7\na = 0\n")
    code, out, _ = run(["sums", f"--config={cfg}", "--M=11"])
    assert code == 0
    assert out.startswith("ramanujan method=closed_form value=10 ")


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = ramanujan\nwibble = 3\n")
    code, _, err = run(["sums", f"--config={cfg}"])
    assert code == 2
    assert f"{cfg}:2: unknown key 'wibble'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--kind=gauss", "--M=1009"],
        ["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=7", "--method=smoothed"],
        ["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=7", "--jobs=2"],
        ["verify", "--suite=transforms", "--jobs=2"],
    ],
)
def test_removed_options_exit_2(argv):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert "usage:" in err


@pytest.mark.parametrize(
    "command, settings, key",
    [
        ("sweep", "kind = dirichlet\npmin = 5\npmax = 7", "jobs"),
        ("sweep", "kind = dirichlet\npmin = 5\npmax = 7", "method"),
        ("verify", "suite = transforms\nmmax = 13\nseed = 2", "jobs"),
    ],
    ids=["jobs", "method", "verify-jobs"],
)
def test_sweep_config_file_refuses_removed_keys(tmp_path, command, settings, key):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(f"{settings}\n{key} = 1\n")
    code, out, err = run([command, f"--config={cfg}"])
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:4: unknown key {key!r} for {command}\n"


def test_no_command_exits_2():
    code, _, _ = run([])
    assert code == 2


@pytest.mark.parametrize("flag", ["--mystery=1", "--samples=notanint"])
def test_bad_flags_exit_2(flag):
    code, _, _ = run(["verify", "--suite=appendix", flag])
    assert code == 2
