"""Experiment runs: determinism, accounting, persistence, plot data."""

import json

import pytest

from cokpairs.ensembles import EnsembleSpec, KIND_ER, KIND_UNIFORM
from cokpairs.experiments import (
    CAP_FLAG,
    ExperimentConfig,
    counts_from_report,
    emit_plot_data,
    parse_plot_data,
    pooled_chi_square,
    prediction_table,
    run_connectivity,
    run_distribution,
    run_moment,
    total_variation_pooled,
)


def small_config(trials=40, jobs=1, seed=6, out=None):
    return ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_UNIFORM, n=8, seed=seed, modulus=8),
        primes=(2,),
        order_bound=16,
        trials=trials,
        jobs=jobs,
        out=out,
    )


def test_distribution_counts_sum_to_trials():
    rep = run_distribution(small_config())
    assert sum(r.count for r in rep.rows) == 40
    freqs = sum(r.frequency for r in rep.rows)
    assert abs(freqs - 1.0) < 1e-12


def test_distribution_deterministic_rerun():
    a = run_distribution(small_config())
    b = run_distribution(small_config())
    assert a.canonical_json() == b.canonical_json()


def test_distribution_jobs_invariant():
    seq = run_distribution(small_config(trials=30, jobs=1))
    par = run_distribution(small_config(trials=30, jobs=2))
    assert seq.canonical_json() == par.canonical_json()


def test_distribution_seed_changes_counts():
    a = run_distribution(small_config(seed=6))
    b = run_distribution(small_config(seed=7))
    assert counts_from_report(a) != counts_from_report(b)


def test_outputs_written(tmp_path):
    out = str(tmp_path / "run")
    cfg = small_config(trials=20, out=out)
    rep = run_distribution(cfg)
    with open(out + ".json") as fh:
        stored = json.load(fh)
    assert stored["kind"] == "distribution"
    with open(out + ".jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == 20
    assert lines[0]["trial"] == 0 and "class" in lines[0]


def test_moment_report(tmp_path):
    out = str(tmp_path / "moment")
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_ER, n=16, seed=2, q=0.5),
        trials=60,
        out=out,
        target="Z/2|1/2",
    )
    rep = run_moment(cfg)
    m = rep.moment
    assert m["predicted"] == 0.5
    assert m["trials_kept"] + rep.flagged["budget_exceeded"] == 60
    with open(out + ".jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == 60
    assert set(lines[0]) == {"trial", "seed", "group", "gram", "count"}


def test_moment_deterministic():
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_ER, n=12, seed=5, q=0.5),
        trials=25,
        target="Z/2|1/2",
    )
    a = run_moment(cfg)
    b = run_moment(cfg)
    assert a.canonical_json() == b.canonical_json()
    c = run_moment(
        ExperimentConfig(
            ensemble=EnsembleSpec(kind=KIND_ER, n=12, seed=5, q=0.5),
            trials=25,
            jobs=2,
            target="Z/2|1/2",
        )
    )
    assert a.canonical_json() == c.canonical_json()


@pytest.mark.parametrize(
    "run, ensemble, target",
    [
        (run_distribution, EnsembleSpec(kind=KIND_UNIFORM, n=8, seed=6, modulus=8), None),
        (run_moment, EnsembleSpec(kind=KIND_ER, n=12, seed=5, q=0.5), "Z/2|1/2"),
        (run_connectivity, EnsembleSpec(kind=KIND_ER, n=6, seed=3, q=0.4), None),
    ],
)
def test_runner_jobs_invariant(tmp_path, run, ensemble, target):
    """37 trials is no multiple of 8 * jobs, so the last slice is short."""
    reports, logs = [], []
    for jobs in (1, 3):
        out = str(tmp_path / f"jobs{jobs}")
        cfg = ExperimentConfig(
            ensemble=ensemble, order_bound=16, trials=37, jobs=jobs, out=out, target=target
        )
        reports.append(run(cfg).canonical_json())
        with open(out + ".jsonl", "rb") as fh:
            logs.append(fh.read())
    assert reports[0] == reports[1]
    assert logs[0] == logs[1]
    assert logs[0].count(b"\n") == 37


def test_connectivity_examples():
    # n=2, q=0.5: connected fraction near 1/2
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_ER, n=2, seed=3, q=0.5), trials=400
    )
    rep = run_connectivity(cfg)
    assert abs(rep.connectivity["fraction"] - 0.5) < 0.1
    # q=1: always connected
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_ER, n=5, seed=3, q=1.0), trials=50
    )
    rep = run_connectivity(cfg)
    assert rep.connectivity["fraction"] == 1.0
    with pytest.raises(ValueError):
        run_connectivity(small_config())


def test_config_roundtrip():
    cfg = small_config(trials=7, jobs=2, out="x")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    cfg2 = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_ER, n=10, seed=1, q=0.25),
        target="Z/2|1/2",
        trials=3,
    )
    assert ExperimentConfig.from_dict(cfg2.to_dict()) == cfg2


def test_plot_csv_roundtrip(tmp_path):
    rep = run_distribution(small_config(trials=30))
    path = str(tmp_path / "plot.csv")
    text = emit_plot_data(rep, path)
    with open(path) as fh:
        assert fh.read() == text
    parsed = parse_plot_data(text)
    by_key = {row.key: row for row in rep.rows}
    assert len(parsed) == len(rep.rows)
    for rec in parsed:
        row = by_key[rec["class_id"]]
        assert rec["observed_frequency"] == row.frequency
        assert rec["ci_low"] == row.ci_low and rec["ci_high"] == row.ci_high
        assert rec["predicted"] == row.predicted
        if rec["class_id"] not in (CAP_FLAG, "__budget_exceeded__"):
            joined = rec["group"] + ("|" + rec["gram"] if rec["gram"] else "|")
            assert joined == rec["class_id"]


def test_plot_csv_empty_report(tmp_path):
    from cokpairs.experiments import ExperimentReport

    rep = ExperimentReport(
        kind="distribution",
        config={},
        rows=[],
        flagged={},
        chi_square=None,
        moment=None,
        connectivity=None,
        prediction_note=None,
        versions={},
        wallclock=0.0,
    )
    text = emit_plot_data(rep, str(tmp_path / "empty.csv"))
    assert text.splitlines() == [
        "class_id,group,gram,observed_frequency,ci_low,ci_high,predicted"
    ]


def test_pooled_chi_square_pools_small_cells():
    predicted = {"a": 0.5, "b": 0.3, "c": 0.001}
    counts = {"a": 52, "b": 28, "c": 1, "d": 19}
    out = pooled_chi_square(counts, 100, predicted, min_expected=5.0)
    assert out["df"] == 2  # only a and b kept
    assert out["other_observed"] == 20
    assert abs(out["other_expected"] - 20.0) < 1e-9
    assert out["pvalue"] > 0.5


def test_total_variation_of_identical_counts_is_zero():
    predicted, _ = prediction_table((2,), 16)
    counts = {"1|": 40, "Z/2|1/2": 25}
    assert total_variation_pooled(counts, 65, counts, 65, predicted) == 0.0


def test_prediction_note_mentions_bound():
    _, note = prediction_table((2,), 16)
    assert "16" in note


GOLDEN_CSV_HEAD = [
    "class_id,group,gram,observed_frequency,ci_low,ci_high,predicted",
    '"1|","1","",0.6666666666666666,0.39062208887279953,0.8618799089087867,0.41942244179510757',
    '"Z/16|5/16","Z/16","5/16",0.08333333333333333,0.014865094404917095,0.35387991114111694,',
]

GOLDEN_OUTCOMES = [
    "1|",
    "Z/2|1/2",
    "1|",
    "1|",
    "1|",
    "1|",
    "1|",
    "Z/2+Z/2|0/1,1/2,1/2,1/2",
    "1|",
    "Z/4+Z/4|0/1,1/4,1/4,1/4",
    "1|",
    "Z/16|5/16",
]

GOLDEN_CANONICAL_SHA = "57b305e3bef35655b03cfc2dd6dc4cd5fa062f9bdde4c550cfaf289454b041d6"


def test_golden_formats(tmp_path):
    """The CSV and JSONL external formats are pinned byte for byte."""
    import hashlib

    from cokpairs.ensembles import default_cap
    from cokpairs.experiments import _classify_trial

    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_UNIFORM, n=4, seed=13, modulus=4),
        primes=(2,),
        order_bound=8,
        trials=12,
        out=str(tmp_path / "golden"),
    )
    rep = run_distribution(cfg)
    text = emit_plot_data(rep, str(tmp_path / "golden.csv"))
    assert text.splitlines()[:3] == GOLDEN_CSV_HEAD
    assert (
        hashlib.sha256(rep.canonical_json().encode()).hexdigest()
        == GOLDEN_CANONICAL_SHA
    )
    outs = [_classify_trial(cfg.ensemble, (2,), {2: default_cap(2, 8)}, t) for t in range(12)]
    assert outs == GOLDEN_OUTCOMES
    with open(str(tmp_path / "golden.jsonl")) as fh:
        lines = [json.loads(line) for line in fh]
    assert [line["class"] for line in lines] == GOLDEN_OUTCOMES


def _sha256_file(path):
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_text(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def test_n40_outputs_pinned(tmp_path):
    """100-trial runs at n = 40 reproduce their trial logs (raw Gram texts
    included) and canonical reports byte for byte."""
    dist = run_distribution(
        ExperimentConfig(
            ensemble=EnsembleSpec(kind=KIND_ER, n=40, seed=11, q=0.5),
            trials=100,
            out=str(tmp_path / "dist"),
        )
    )
    moment = run_moment(
        ExperimentConfig(
            ensemble=EnsembleSpec(kind=KIND_UNIFORM, n=40, seed=12, modulus=9),
            trials=100,
            out=str(tmp_path / "moment"),
            target="Z/3|1/3",
        )
    )
    assert (
        _sha256_file(tmp_path / "dist.jsonl")
        == "89478afd0797ac042af92567a75a44ed205ec4cf5d4aef2e31a4cf5bb94eb54e"
    )
    assert (
        _sha256_text(dist.canonical_json())
        == "a116fbeb6faa1599c1f633dbd989dacd0f7d0f88caebbec2b1006d6df8752330"
    )
    assert (
        _sha256_file(tmp_path / "moment.jsonl")
        == "e9d6f7a7cadd2cb317ba06781f33ea3414fb7cafc64f434dcc086eed4a6be322"
    )
    assert (
        _sha256_text(moment.canonical_json())
        == "88ddb58525417323a4de4dab599a1c3269d56e99810467e88c336904cd00b506"
    )
