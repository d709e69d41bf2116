"""CLI surface: every subcommand runs and prints what it should."""

import hashlib
import io
import json

import pytest

from cokpairs.cli import format_matrix, main, parse_matrix
from cokpairs.intmat import IntMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matrix_text_roundtrip():
    m = IntMatrix.from_rows([[1, -2], [-2, 5]])
    assert parse_matrix(format_matrix(m)) == m


def test_sample_graph_deterministic(capsys):
    code, out1 = run_cli(capsys, "sample", "--kind", "er_laplacian", "--n", "6", "--q", "0.5", "--seed", "3")
    assert code == 0
    _, out2 = run_cli(capsys, "sample", "--kind", "er_laplacian", "--n", "6", "--q", "0.5", "--seed", "3")
    assert out1 == out2


def test_sample_matrix(capsys):
    code, out = run_cli(capsys, "sample", "--kind", "uniform_mod_a", "--n", "3", "--modulus", "4", "--seed", "1")
    assert code == 0
    m = parse_matrix(out)
    assert m.is_symmetric()
    assert all(0 <= x < 4 for row in m.data for x in row)


def test_classify_graph(capsys):
    code, out = run_cli(capsys, "classify", "--graph", "3|0-1,0-2,1-2", "--primes", "3")
    assert code == 0
    assert out.splitlines()[0] == "Z/3|1/3"


def test_classify_matrix(capsys):
    code, out = run_cli(capsys, "classify", "--matrix", "2 1; 1 2", "--primes", "3")
    assert code == 0
    assert out.splitlines()[0] == "Z/3|2/3"


def test_classify_reports_a_group_over_the_budget(capsys):
    # |End| = p^4 of (Z/p)^2 is over the budget; this used to exit with a traceback
    p = "2147483647"
    code, out = run_cli(
        capsys, "classify", "--matrix", f"{p} 0; 0 {p}", "--primes", p, "--order-bound", str(10**19)
    )
    assert code == 1
    assert out.startswith("budget_exceeded: |End| = ") and len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["--matrix", "1 2; 3 4"], ""),
        (["--matrix", "1 2; 2"], ""),
        (["--matrix", "1 x; 2 3"], ""),
        (["--graph", "3|0-3"], ""),
        ([], "1 2; 3 4"),
        (["--matrix", "2 0; 0 2", "--free-rank", "-1"], ""),
        (["--matrix", "2 0; 0 2", "--primes", "4"], ""),
        (["--matrix", "2 0; 0 2", "--primes", "2,2"], ""),
        (["--matrix", ""], "2 0; 0 2"),
    ],
    ids=[
        "asymmetric",
        "ragged",
        "non-integer",
        "bad-edge",
        "asymmetric-stdin",
        "negative-free-rank",
        "non-prime",
        "repeated-prime",
        "empty-matrix",
    ],
)
def test_classify_reports_malformed_input_as_a_bad_argument(argv, stdin, capsys, monkeypatch):
    # each of these used to end in a traceback, except the empty --matrix,
    # which read the matrix from stdin instead
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    primes = [] if "--primes" in argv else ["--primes", "2"]
    with pytest.raises(SystemExit) as exc:
        main(["classify", *argv, *primes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("cokpairs classify: error: ")


def test_constants(capsys):
    code, out = run_cli(capsys, "constants", "--primes", "2", "--truncation", "20")
    assert code == 0
    assert "0.41942" in out


def test_constants_reject_non_primes(capsys):
    for primes in ("4", "6", "2,4"):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--primes", primes])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"cokpairs constants: error: {primes[-1]} is not a prime\n"


ALPHA = ["--kind", "alpha_balanced", "--modulus", "2", "--support", "0,1"]
BAD_ENSEMBLE = [
    ["--n", "0"],
    ["--q", "1.5"],
    ["--kind", "uniform_mod_a", "--modulus", "1"],
    ["--kind", "uniform_mod_a", "--modulus", str(2**64 + 1)],
    ["--kind", "alpha_balanced", "--modulus", "1", "--support", "0,1", "--weights", "1/2,1/2", "--alpha", "1/2"],
    [*ALPHA, "--weights", "1/2,1/3", "--alpha", "1/2"],
    [*ALPHA, "--weights", f"1/{2**65},{2**65 - 1}/{2**65}", "--alpha", "1/2"],
    [*ALPHA, "--weights", "1/2,1/2", "--alpha", "3/4"],
    [*ALPHA, "--weights", "1/2,1/2", "--alpha", "x"],
    [*ALPHA, "--weights", "1/2,1/2"],
]
BAD_RUN = [["--trials", "0"], ["--jobs", "0"]]
BAD_INPUTS = (
    [["sample", *bad] for bad in BAD_ENSEMBLE]
    + [
        [sub, "--trials", "1", *bad]  # a later flag wins, so a missed check runs one trial
        for sub in ("distribution", "moment", "connectivity")
        for bad in BAD_ENSEMBLE + BAD_RUN
    ]
    + [
        ["distribution", "--primes", "4"],
        ["distribution", "--primes", "2,x"],
        ["moment", "--target", "Z/2|1/3"],
        ["constants", "--truncation", "0"],
        ["connectivity", "--config", "no/such/config.json"],
        ["connectivity", "--trials", "1", "--kind", "uniform_mod_a", "--n", "3"],
        ["distribution", "--trials", "1", "--order-bound", "0"],
        ["classify", "--matrix", "2", "--order-bound", "-1"],
        ["sample", "--trial", "-1"],
    ]
)


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_every_subcommand_reports_a_bad_input_in_one_line(argv, capsys):
    # each used to end in a ValueError traceback with exit code 1, except an
    # alpha ensemble without --alpha, which printed argparse's usage lines
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"cokpairs {argv[0]}: error: ")


def test_runs_without_a_pvalue_or_stderr_print_a_dash(capsys):
    code, out = run_cli(capsys, "distribution", "--n", "1", "--trials", "3")
    assert code == 0 and out.splitlines()[-1].endswith("df = 0, p = -")
    code, out = run_cli(capsys, "moment", "--n", "4", "--trials", "1")
    assert code == 0 and "stderr = -," in out


def test_an_error_inside_a_run_keeps_its_traceback(monkeypatch):
    def fail(*args):
        raise ValueError("raised by a trial")

    monkeypatch.setattr("cokpairs.experiments._connected_trial", fail)
    with pytest.raises(ValueError, match="raised by a trial"):
        main(["connectivity", "--n", "3", "--trials", "2"])


def test_distribution_smoke(capsys, tmp_path):
    csv_path = str(tmp_path / "plot.csv")
    code, out = run_cli(
        capsys,
        "distribution",
        "--kind",
        "uniform_mod_a",
        "--n",
        "8",
        "--modulus",
        "8",
        "--order-bound",
        "16",
        "--trials",
        "30",
        "--seed",
        "5",
        "--plot-csv",
        csv_path,
    )
    assert code == 0
    assert "chi2" in out
    with open(csv_path) as fh:
        assert fh.readline().startswith("class_id,")


def test_moment_smoke(capsys):
    code, out = run_cli(
        capsys,
        "moment",
        "--kind",
        "er_laplacian",
        "--n",
        "10",
        "--q",
        "0.5",
        "--trials",
        "20",
        "--seed",
        "2",
        "--target",
        "Z/2|1/2",
    )
    assert code == 0
    assert "within 3 sigma" in out


def test_connectivity_smoke(capsys):
    code, out = run_cli(
        capsys, "connectivity", "--n", "12", "--q", "0.9", "--trials", "30", "--seed", "4"
    )
    assert code == 0
    assert out.startswith("connected")


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--primes", "3"],
        ["moment", "--order-bound", "7"],
        ["connectivity", "--primes", "4"],
        ["connectivity", "--order-bound", "7"],
        ["sample", "--trials", "5"],
        ["sample", "--jobs", "2"],
        ["sample", "--out", "x"],
        ["sample", "--config", "x.json"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_default_run_config_keeps_primes_and_order_bound(capsys, tmp_path):
    out = str(tmp_path / "conn")
    code, _ = run_cli(capsys, "connectivity", "--n", "6", "--trials", "5", "--out", out)
    assert code == 0
    with open(out + ".json") as fh:
        config = json.load(fh)["config"]
    assert config["primes"] == [2] and config["order_bound"] == 64


def test_config_file(capsys, tmp_path):
    cfg = {
        "schema": "cokpairs-config/1",
        "ensemble": {"kind": "uniform_mod_a", "n": 6, "seed": 9, "modulus": 4},
        "primes": [2],
        "order_bound": 8,
        "trials": 12,
        "jobs": 1,
        "out": None,
        "target": None,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "distribution", "--config", str(path))
    assert code == 0
    assert "12 trials" in out


def test_verify_lemmas(capsys):
    code, out = run_cli(capsys, "verify-lemmas")
    assert code == 0
    assert "0 failures" in out
    assert "special pair count" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3471184d5dd554994da5f28f0b6c706676e9ac8617e4739bc10352e75e25a783"
    )


def test_alpha_balanced_sample_needs_its_distribution(capsys):
    # without --support/--weights/--alpha this died with an AttributeError
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--kind", "alpha_balanced", "--n", "3", "--modulus", "2"])
    assert exc.value.code == 2
    assert "--support, --weights, --alpha" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--kind", "alpha_balanced", "--support", "0,1", "--weights", "1/2,1/2"])
    assert exc.value.code == 2
    assert "needs --alpha" in capsys.readouterr().err
    code, out = run_cli(
        capsys,
        "sample", "--kind", "alpha_balanced", "--n", "3", "--modulus", "2",
        "--support", "0,1", "--weights", "1/2,1/2", "--alpha", "1/2",
    )
    assert code == 0
    assert parse_matrix(out).is_symmetric()
