"""Experiment orchestration: distribution, moment, and connectivity runs.

A run is deterministic in (config, master seed): per-trial substreams are
derived from the trial index, so the parallelism degree never changes the
result.  Reports serialize to JSON; `canonical_json` omits the wallclock
field and is the representation compared across reruns.  Optional JSONL
trial logs (one line per trial) support replay and external analysis.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import __version__ as _pkg_version
from .arith import require_prime
from .ensembles import (
    EnsembleSpec,
    KIND_ER,
    CapExceeded,
    cokernel_pairing_class,
    default_cap,
    graph_adjacency,
    sample_array,
)
from .errors import BudgetExceeded
from .graphs import component_count, laplacian_array
from .moments import count_sur_star_pushforward, tensor_quotient_with_dual_pairing
from .pairings import PairedGroup, parse_paired_group
from .stats import chi2_sf, wilson_interval
from .theory import mass_check

CONFIG_SCHEMA = "cokpairs-config/1"

CAP_FLAG = "__cap_exceeded__"
BUDGET_FLAG = "__budget_exceeded__"

# classes whose expected count falls below this are pooled by the chi-square
# and total-variation comparisons
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: EnsembleSpec
    primes: tuple[int, ...] = (2,)
    order_bound: int = 64
    trials: int = 100
    jobs: int = 1
    out: str | None = None
    target: str | None = None  # paired-group text, moment runs only

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.order_bound < 1:
            raise ValueError("order_bound must be >= 1")
        for p in self.primes:
            require_prime(p)
        if self.target is not None:
            parse_paired_group(self.target)

    def to_dict(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "ensemble": self.ensemble.to_dict(),
            "primes": list(self.primes),
            "order_bound": self.order_bound,
            "trials": self.trials,
            "jobs": self.jobs,
            "out": self.out,
            "target": self.target,
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if d.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            raise ValueError(f"unsupported config schema {d.get('schema')!r}")
        return ExperimentConfig(
            ensemble=EnsembleSpec.from_dict(d["ensemble"]),
            primes=tuple(d.get("primes", [2])),
            order_bound=d.get("order_bound", 64),
            trials=d.get("trials", 100),
            jobs=d.get("jobs", 1),
            out=d.get("out"),
            target=d.get("target"),
        )


@dataclass(frozen=True)
class ClassRow:
    key: str
    count: int
    frequency: float
    ci_low: float
    ci_high: float
    predicted: float | None


@dataclass(kw_only=True)
class ExperimentReport:
    kind: str
    config: dict
    rows: list[ClassRow] = field(default_factory=list)
    flagged: dict = field(default_factory=lambda: {"cap_exceeded": 0, "budget_exceeded": 0})
    chi_square: dict | None = None
    moment: dict | None = None
    connectivity: dict | None = None
    prediction_note: str | None = None
    versions: dict
    wallclock: float

    def canonical_json(self) -> str:
        # jobs and out are execution details: reruns must be bit-identical
        # regardless of parallelism degree, so they stay out of this form
        config = {k: v for k, v in self.config.items() if k not in ("jobs", "out")}
        d = {
            "kind": self.kind,
            "config": config,
            "rows": [asdict(r) for r in self.rows],
            "flagged": self.flagged,
            "chi_square": self.chi_square,
            "moment": self.moment,
            "connectivity": self.connectivity,
            "prediction_note": self.prediction_note,
            "versions": self.versions,
        }
        return json.dumps(d, sort_keys=True, allow_nan=False)

    def to_json(self) -> str:
        d = json.loads(self.canonical_json())
        d["wallclock_seconds"] = self.wallclock
        return json.dumps(d, sort_keys=True, indent=2, allow_nan=False)


def _run_slice(trial_fn, static_args: tuple, trials: range) -> list:
    return [trial_fn(*static_args, t) for t in trials]


def _run_trials(trial_fn, static_args: tuple, config: ExperimentConfig) -> list:
    """trial_fn(*static_args, t) for every trial t, in trial order.

    With jobs > 1, contiguous slices of ceil(trials / (8 jobs)) trials run on
    a process pool; trial_fn must be a module-level function so it pickles.
    Under fork every worker starts at the first submit, so the pool gets at
    most one worker per slice.
    """
    trials = range(config.trials)
    if config.jobs == 1:
        return _run_slice(trial_fn, static_args, trials)
    per = -(-config.trials // (8 * config.jobs))
    slices = [trials[lo : lo + per] for lo in range(0, config.trials, per)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(config.jobs, len(slices))) as ex:
        parts = ex.map(functools.partial(_run_slice, trial_fn, static_args), slices)
        return [out for part in parts for out in part]


def _finish(
    config: ExperimentConfig, t0: float, trial_lines: list[dict], **fields
) -> ExperimentReport:
    """Stamp versions and wallclock on the report, and write its .json
    summary and .jsonl trial log when config.out is set."""
    report = ExperimentReport(
        config=config.to_dict(), versions={"cokpairs": _pkg_version},
        wallclock=time.time() - t0, **fields,
    )
    if config.out:
        _write_outputs(config.out, report, trial_lines)
    return report


# ---------------------------------------------------------------------------
# distribution runs


def _classify_trial(spec: EnsembleSpec, primes, caps, trial: int) -> str:
    if spec.kind == KIND_ER:
        adj = graph_adjacency(spec, trial)
        m, free_rank = laplacian_array(adj), component_count(adj)
    else:
        m, free_rank = sample_array(spec, trial), 0
    try:
        res = cokernel_pairing_class(m, primes, caps, free_rank)
    except BudgetExceeded:
        return BUDGET_FLAG
    if isinstance(res, CapExceeded):
        return CAP_FLAG
    return res.text


_prediction_cache: dict[tuple, tuple[dict[str, float], str]] = {}


def prediction_table(primes, order_bound: int) -> tuple[dict[str, float], str]:
    """Predicted probability per class text for classes with |G| <= bound,
    plus a note describing what was skipped or left unexplored."""
    key = (tuple(sorted(primes)), order_bound)
    if key not in _prediction_cache:
        res = mass_check(primes, order_bound)
        _prediction_cache[key] = (
            {row.class_text: row.probability for row in res.rows},
            res.tail_note,
        )
    return _prediction_cache[key]


def pooled_chi_square(counts: dict[str, int], trials: int, predicted: dict[str, float]) -> dict:
    """Chi-square against predictions, pooling every class with expected
    count below MIN_EXPECTED (plus all unpredicted mass) into one bucket."""
    kept = sorted(
        (key for key, p in predicted.items() if p * trials >= MIN_EXPECTED),
        key=lambda k: -predicted[k],
    )
    stat = 0.0
    kept_cells = []
    used_prob = 0.0
    used_count = 0
    for key in kept:
        exp = predicted[key] * trials
        obs = counts.get(key, 0)
        stat += (obs - exp) ** 2 / exp
        used_prob += predicted[key]
        used_count += obs
        kept_cells.append({"class": key, "observed": obs, "expected": exp})
    other_exp = (1.0 - used_prob) * trials
    other_obs = trials - used_count
    df = len(kept)
    if other_exp > 1e-9:
        stat += (other_obs - other_exp) ** 2 / other_exp
    else:
        df -= 1
    pvalue = chi2_sf(stat, df) if df >= 1 else None
    return {
        "statistic": stat,
        "df": df,
        "pvalue": pvalue,
        "cells": kept_cells,
        "other_observed": other_obs,
        "other_expected": other_exp,
        "min_expected": MIN_EXPECTED,
    }


def _rows_from_counts(counts: dict[str, int], trials: int, predicted: dict[str, float]):
    keys = sorted(set(counts) | set(predicted))
    rows = []
    for key in keys:
        c = counts.get(key, 0)
        lo, hi = wilson_interval(c, trials)
        rows.append(
            ClassRow(
                key=key,
                count=c,
                frequency=c / trials,
                ci_low=lo,
                ci_high=hi,
                predicted=predicted.get(key),
            )
        )
    return rows


def run_distribution(config: ExperimentConfig) -> ExperimentReport:
    """Sample the ensemble, classify each trial's Sylow pair, and compare
    the empirical class frequencies with the predicted ones."""
    t0 = time.time()
    primes = tuple(sorted(config.primes))
    caps = {p: default_cap(p, config.order_bound) for p in primes}
    outcomes = _run_trials(_classify_trial, (config.ensemble, primes, caps), config)
    counts: dict[str, int] = {}
    for key in outcomes:
        counts[key] = counts.get(key, 0) + 1
    predicted, note = prediction_table(primes, config.order_bound)
    return _finish(
        config,
        t0,
        [{"trial": i, "class": k} for i, k in enumerate(outcomes)],
        kind="distribution",
        rows=_rows_from_counts(counts, config.trials, predicted),
        flagged={
            "cap_exceeded": counts.get(CAP_FLAG, 0),
            "budget_exceeded": counts.get(BUDGET_FLAG, 0),
        },
        chi_square=pooled_chi_square(counts, config.trials, predicted),
        prediction_note=note,
    )


# ---------------------------------------------------------------------------
# moment runs


def _moment_trial(spec: EnsembleSpec, target: PairedGroup, trial: int) -> tuple:
    """(source group text, source Gram text, Sur* count); the count is
    None when the enumeration budget is exceeded."""
    b = target.group.exponent
    if b == 1:
        return "1", "", 1
    m = sample_array(spec, trial)
    try:
        src_group, src_gram = tensor_quotient_with_dual_pairing(m, b, spec.kind == KIND_ER)
        c = count_sur_star_pushforward((src_group, src_gram), (target.group, target.pairing))
    except BudgetExceeded:
        return "", "", None
    return src_group.text(), src_gram.text(), c


def run_moment(config: ExperimentConfig) -> ExperimentReport:
    """Estimate the expected Sur* count onto the target over the ensemble.

    The report carries |mean - 1/|G|| and the three-sigma verdict against
    the predicted limiting moment 1/|G|.
    """
    t0 = time.time()
    if not config.target:
        raise ValueError("moment runs need a target paired group")
    target = parse_paired_group(config.target)
    records = _run_trials(_moment_trial, (config.ensemble, target), config)
    counts = [r[2] for r in records if r[2] is not None]
    kept = len(counts)
    mean = Fraction(sum(counts), kept) if kept else Fraction(0)
    stderr = None
    if kept > 1:
        var = sum((Fraction(c) - mean) ** 2 for c in counts) / (kept - 1)
        stderr = math.sqrt(float(var) / kept)
    target_value = Fraction(1, target.group.order)
    deviation = abs(float(mean - target_value))
    return _finish(
        config,
        t0,
        [
            {"trial": t, "seed": config.ensemble.seed, "group": g, "gram": gr, "count": c}
            for t, (g, gr, c) in enumerate(records)
        ],
        kind="moment",
        flagged={"budget_exceeded": config.trials - kept, "cap_exceeded": 0},
        moment={
            "target": target.text(),
            "mean": f"{mean.numerator}/{mean.denominator}",
            "mean_float": float(mean),
            "stderr": stderr,
            "trials_kept": kept,
            "predicted": float(target_value),
            "abs_deviation": deviation,
            "within_3_sigma": bool(deviation <= 3 * stderr) if kept > 1 else None,
        },
    )


# ---------------------------------------------------------------------------
# connectivity runs


def _connected_trial(spec: EnsembleSpec, trial: int) -> bool:
    return component_count(graph_adjacency(spec, trial)) == 1


def run_connectivity(config: ExperimentConfig) -> ExperimentReport:
    """Fraction of connected samples with a Wilson interval (ER only)."""
    t0 = time.time()
    if config.ensemble.kind != KIND_ER:
        raise ValueError("connectivity runs need an ER ensemble")
    flags = _run_trials(_connected_trial, (config.ensemble,), config)
    k = sum(flags)
    lo, hi = wilson_interval(k, config.trials)
    return _finish(
        config,
        t0,
        [{"trial": i, "connected": c} for i, c in enumerate(flags)],
        kind="connectivity",
        connectivity={
            "connected": k,
            "fraction": k / config.trials,
            "ci_low": lo,
            "ci_high": hi,
        },
    )


# ---------------------------------------------------------------------------
# persistence and plot data


def _write_outputs(out_path: str, report: ExperimentReport, trial_lines: list[dict]) -> None:
    with open(out_path + ".json", "w") as fh:
        fh.write(report.to_json() + "\n")
    with open(out_path + ".jsonl", "w") as fh:
        for line in trial_lines:
            fh.write(json.dumps(line, sort_keys=True, allow_nan=False) + "\n")


PLOT_HEADER = "class_id,group,gram,observed_frequency,ci_low,ci_high,predicted"


def emit_plot_data(report: ExperimentReport, path: str) -> str:
    """CSV with one row per class (observed or predicted-but-unobserved)."""
    lines = [PLOT_HEADER]
    for row in report.rows:
        if row.key in (CAP_FLAG, BUDGET_FLAG):
            group, gram = row.key, ""
        else:
            group, _, gram = row.key.partition("|")
        pred = "" if row.predicted is None else repr(row.predicted)
        lines.append(
            f'"{row.key}","{group}","{gram}",{row.frequency!r},{row.ci_low!r},{row.ci_high!r},{pred}'
        )
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def parse_plot_data(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for r in rows:
        out.append(
            {
                "class_id": r["class_id"],
                "group": r["group"],
                "gram": r["gram"],
                "observed_frequency": float(r["observed_frequency"]),
                "ci_low": float(r["ci_low"]),
                "ci_high": float(r["ci_high"]),
                "predicted": float(r["predicted"]) if r["predicted"] else None,
            }
        )
    return out


def total_variation_pooled(
    counts_a: dict[str, int],
    trials_a: int,
    counts_b: dict[str, int],
    trials_b: int,
    predicted: dict[str, float],
) -> float:
    """TV distance between two empirical class distributions after pooling
    classes with predicted expected count below MIN_EXPECTED."""
    ref_trials = min(trials_a, trials_b)
    kept = [k for k, p in predicted.items() if p * ref_trials >= MIN_EXPECTED]
    fa_other, fb_other = 1.0, 1.0
    tv = 0.0
    for key in kept:
        fa = counts_a.get(key, 0) / trials_a
        fb = counts_b.get(key, 0) / trials_b
        tv += abs(fa - fb)
        fa_other -= fa
        fb_other -= fb
    tv += abs(fa_other - fb_other)
    return tv / 2.0


def counts_from_report(report: ExperimentReport) -> dict[str, int]:
    return {row.key: row.count for row in report.rows if row.count}
