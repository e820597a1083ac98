"""Exercises the delta-sums command line in process."""

import contextlib
import io
import re

import pytest

from deltasums.cli import main
from deltasums.lfunctions import load_tau_table

REPORT_LINE = re.compile(
    r"^[a-z0-9_:]+,[0-9a-f]{12},\d\.\d{9}e[+-]\d{2,3},\d\.\d{9}e[+-]\d{2,3},"
    r"\d\.\d{9}e[+-]\d{2,3},(pass|fail)$"
)
BENCH_LINE = re.compile(
    r"^kind=\w+ M=\d+ samples=\d+ wall_s=\d+\.\d{4} per_sum_ms=\d+\.\d{4} sums_per_s=\S+$"
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on its own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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


def test_verify_delta_form_rebuilds_a_corrupt_tau_cache(tmp_path, monkeypatch):
    cache = tmp_path / "tau_table.txt"
    cache.write_text("6000\n1\n-24\nnot a number\n")
    monkeypatch.setenv("DELTA_SUMS_CACHE", str(cache))
    code, out, err = run(["verify", "--suite=pipeline", "--coeff=delta_form"])
    assert code == 0, err
    assert all(ln.endswith(",pass") for ln in out.splitlines() if "," in ln)
    assert load_tau_table(cache) is not None


def test_sums_ramanujan():
    code, out, _ = run(["sums", "--kind=ramanujan", "--M=7", "--a=0"])
    assert code == 0
    assert out.startswith("ramanujan method=closed_form value=6 abs=6 ")


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


def test_sweep_parallel_is_byte_identical(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run(["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=31", f"--out={serial}"])[0] == 0
    assert (
        run(
            ["sweep", "--kind=dirichlet", "--pmin=5", "--pmax=31",
             "--jobs=4", f"--out={parallel}"]
        )[0]
        == 0
    )
    assert serial.read_bytes() == parallel.read_bytes()


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
    code, _, err = run(["sweep", "--kind=twist", "--pmin=5", "--pmax=7", "--method=bogus"])
    assert code == 2 and "bogus" in err


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


def test_bench_row_format():
    code, out, _ = run(["bench", "--kind=gauss", "--M=1009", "--samples=5", "--seed=3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# timings vary run to run")
    assert len(lines) == 2
    assert BENCH_LINE.match(lines[1]), lines[1]


def test_bench_rejects_composite_modulus():
    code, _, err = run(["bench", "--kind=gauss", "--M=1000", "--samples=5"])
    assert code == 2
    assert "prime" in err


def test_no_command_exits_2():
    code, _, _ = run([])
    assert code == 2


@pytest.mark.parametrize("flag", ["--mystery=1", "--samples=notanint"])
def test_bad_flags_exit_2(flag):
    code, _, _ = run(["verify", "--suite=appendix", flag])
    assert code == 2
