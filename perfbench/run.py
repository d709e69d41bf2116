"""Benchmark command for cokpairs: one workload per fresh process.

    python3 perfbench/run.py --workload dist_er40 --seed 20240801 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`); the line before it names
the entry point measured, the trials run and the digest of the first
round's `canonical_json`.  Trial logs, reports and spans are written under
`.bench_out/`.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
# extra fresh processes that repeat only the set-up, for the setup_s median
SETUP_PROBES = {"dist_er40": 2}
DEFAULT_SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170
MAX_ERRORS_SHOWN = 5

# one process, one thread: numpy's BLAS must not spread over the shared cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_workloads():
    if not (ROOT / "src" / "cokpairs" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'cokpairs'}; run from a cokpairs checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def run_child(args: list[str]) -> list[dict]:
    """Run this script in a fresh process; return its last two output lines."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in lines[-2:]]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_rounds(wl, seed: int, seconds: float, outdir: Path, round_seed) -> tuple[list[dict], list[float]]:
    """Whole rounds of the untraced entry point until `seconds` have passed,
    with the calibration kernel timed before the first round and after each."""
    import calibration

    rounds, cal_s = [], [calibration.kernel_s(3)]
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = len(rounds)
        out = str(outdir / f"round{r:04d}")
        t = time.perf_counter()
        try:
            wl.run_round(round_seed(seed, r), out)
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        rounds.append({"seed": round_seed(seed, r), "out": out, "s": time.perf_counter() - t, "ok": ok})
        cal_s.append(calibration.kernel_s(3))
    return rounds, cal_s


def check_records(wl, seed_r: int, records: list[dict], reference=None) -> list[str]:
    """One message per failed trial: its check failed or raised, or it
    differs from the untraced run's record of the same trial."""
    if [rec.get("trial") for rec in records] != list(range(wl.round_trials)):
        return [f"round seed {seed_r}: trial log does not hold trials 0..{wl.round_trials - 1}"] * wl.round_trials
    failures = []
    for k, rec in enumerate(records):
        try:
            err = wl.check_trial(seed_r, rec)
        except Exception as exc:  # a check that raises fails the trial
            err = f"check raised {exc!r}"
        if not err and reference is not None and (k >= len(reference) or reference[k] != rec):
            err = f"traced record {rec} != untraced {reference[k] if k < len(reference) else None}"
        if err:
            failures.append(f"round seed {seed_r} trial {rec['trial']}: {err}")
    return failures


def report(summary: dict, errors: list[str], failures: list[str], attempted: int, metrics: dict) -> None:
    """Print the run summary line and then the result line."""
    for e in (errors + failures)[:MAX_ERRORS_SHOWN]:
        print(f"perfbench: {summary['workload']}: {e}", file=sys.stderr)
    summary["errors"] = errors[:MAX_ERRORS_SHOWN]
    summary["failures"] = failures[:MAX_ERRORS_SHOWN]
    print(json.dumps(summary))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(failures), "metrics": metrics}))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl, seed: int, seconds: float, reference: bool, ws) -> None:
    import calibration

    wl.setup()
    setup_s = time.perf_counter() - _T0
    setup_rss_mb = peak_rss_mb()
    outdir = fresh_dir(OUT_ROOT / wl.name / f"seed{seed}" / "untraced")
    rounds, cal_s = timed_rounds(wl, seed, seconds, outdir, ws.round_seed)
    run_rss_mb = peak_rss_mb()
    round_s = [r["s"] for r in rounds]
    trials = len(rounds) * wl.round_trials
    if reference:
        print(json.dumps({"rounds": rounds, "trials": trials}))
        return

    errors = [f"set-up: {e}" for e in wl.setup_errors()]
    failures = []
    for r in rounds:
        if not r["ok"]:
            failures += [f"round seed {r['seed']}: raised"] * wl.round_trials
            continue
        records = wl.round_records(r["out"])
        failures += check_records(wl, r["seed"], records)
        errors += wl.round_errors(r["seed"], r["out"], records)

    # (raw set-up seconds, kernel seconds next to it), here and in fresh processes
    setup_samples = [(setup_s, cal_s[0])]
    for _ in range(SETUP_PROBES.get(wl.name, DEFAULT_SETUP_PROBES)):
        probe = run_child(["--workload", wl.name, "--seed", str(seed), "--setup-probe"])[-1]
        setup_samples.append((probe["setup_s"], probe["kernel_s"]))

    raw_rates = [wl.round_trials / x for x in round_s]
    # each round at reference speed: the kernel's mean time around it over REF_S
    ref_rates = [
        rate * (cal_s[i] + cal_s[i + 1]) / 2 / calibration.REF_S for i, rate in enumerate(raw_rates)
    ]
    summary = {
        "workload": wl.name,
        "entry_point": wl.entry_point,
        "seed": seed,
        "rounds": len(rounds),
        "trials": trials,
        "trials_per_round": wl.round_trials,
        "digest": ws.digest(wl.round_digest_text(rounds[0]["out"])) if rounds[0]["ok"] else None,
        "out": str(outdir.relative_to(ROOT)),
        "round_s": round_s,
        "kernel_s": cal_s,
        "setup_samples_s": [s for s, _ in setup_samples],
        "setup_kernel_s": [k for _, k in setup_samples],
        "raw_trials_per_s": statistics.median(raw_rates),
        "raw_setup_s": statistics.median(s for s, _ in setup_samples),
        "peak_rss_mb_whole_run": run_rss_mb,
    }
    metrics = {
        "setup_s": metric(statistics.median(s * calibration.REF_S / k for s, k in setup_samples), "s"),
        "trials_per_s": metric(statistics.median(ref_rates), "1/s"),
        "peak_rss_mb": metric(setup_rss_mb, "MB"),
    }
    report(summary, errors, failures, trials, metrics)


def layer_metrics(wl, tracer, rounds: int, trials: int, untraced_s: float, traced_s: float) -> dict:
    from spans import LAYER_OF

    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, s in tracer.self_times():
        self_s[name] += s
        calls[name] += 1

    def layer_s(layer):
        return sum(s for name, s in self_s.items() if LAYER_OF.get(name) == layer)

    def layer_calls(layer):
        return sum(c for name, c in calls.items() if LAYER_OF.get(name) == layer)

    def per(total, count, scale):
        return scale * total / count if count else 0.0

    push = ("count_sur_star_pushforward", "pushforward_route")
    slowest = max(
        (s[3] - s[2] for s in tracer.spans if s[1] == "pairing_class_table"), default=0.0
    )
    round_layers = ("sample", "reduce", "classify", "count", "report")
    m = {
        "sample.ms_per_trial": metric(per(layer_s("sample"), trials, 1e3), "ms"),
        "reduce.ms_per_call": metric(per(layer_s("reduce"), layer_calls("reduce"), 1e3), "ms"),
        "reduce.calls": metric(layer_calls("reduce"), "count"),
        "reduce.cap_exceeded": metric(getattr(wl, "cap_exceeded", 0), "count"),
        "classify.ms_per_call": metric(per(layer_s("classify"), layer_calls("classify"), 1e3), "ms"),
        "classify.calls": metric(layer_calls("classify"), "count"),
        "classify.distinct_inputs": metric(len(getattr(wl, "classify_inputs", ())), "count"),
        "predict.s": metric(float(layer_s("predict")), "s"),
        "predict.slowest_group_s": metric(slowest, "s"),
        "predict.groups": metric(getattr(wl, "groups", 0), "count"),
        "predict.groups_skipped": metric(getattr(wl, "groups_skipped", 0), "count"),
        "predict.classes": metric(len(getattr(wl, "predicted", ())), "count"),
        "count.pushforward_ms_per_call": metric(
            per(sum(self_s[n] for n in push), sum(calls[n] for n in push), 1e3), "ms"
        ),
        "count.congruence_ms_per_call": metric(
            per(self_s["sur_star_congruence_table"], calls["sur_star_congruence_table"], 1e3), "ms"
        ),
        "count.lifted_us_per_map": metric(per(self_s["lifted_route"], getattr(wl, "maps", 0), 1e6), "us"),
        "count.maps": metric(getattr(wl, "maps", 0), "count"),
        "count.surjections": metric(getattr(wl, "surjections", 0), "count"),
        "report.ms_per_run": metric(per(layer_s("report"), rounds, 1e3), "ms"),
        "run.overhead_ms_per_trial": metric(
            per(untraced_s - sum(layer_s(x) for x in round_layers), trials, 1e3), "ms"
        ),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
    }
    return m


def traced(wl, seed: int, seconds: float, ws) -> None:
    """Per-layer numbers: an untraced reference run in a fresh process, then
    the same rounds again here with a span around every layer call."""
    from spans import Tracer

    ref = run_child(["--workload", wl.name, "--seed", str(seed), "--seconds", str(seconds / 2), "--reference"])[-1]
    tracer = Tracer()
    wl.setup(tracer)
    outdir = fresh_dir(OUT_ROOT / wl.name / f"seed{seed}" / "traced")
    errors = [f"set-up: {e}" for e in wl.setup_errors()]
    all_records = []
    t0 = time.perf_counter()
    for r, ref_round in enumerate(ref["rounds"]):
        out = str(outdir / f"round{r:04d}")
        all_records.append(wl.traced_round(tracer, ref_round["seed"], ref_round["out"], out))
    traced_s = time.perf_counter() - t0
    tracer.write(str(outdir / "spans.jsonl"))
    failures = []
    for ref_round, records in zip(ref["rounds"], all_records):
        failures += check_records(wl, ref_round["seed"], records, wl.round_records(ref_round["out"]))
    rounds = len(ref["rounds"])
    trials = rounds * wl.round_trials
    summary = {
        "workload": wl.name,
        "entry_point": wl.entry_point,
        "seed": seed,
        "rounds": rounds,
        "trials": trials,
        "spans": str((outdir / "spans.jsonl").relative_to(ROOT)),
    }
    untraced_s = sum(r["s"] for r in ref["rounds"])
    report(summary, errors, failures, trials, layer_metrics(wl, tracer, rounds, trials, untraced_s, traced_s))


def run_all(args, names) -> int:
    """Every workload in turn, each in a fresh process; prints a table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = ["--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        run, res = run_child(cmd)
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        print(
            f"{name}: {run['entry_point']} seed {run['seed']}, {run['trials']} trials in {run['rounds']} rounds, "
            f"attempted {res['attempted']} failed {res['failed']} correct {res['correct']}"
            + (f", digest {run['digest']}" if "digest" in run else "")
        )
        for key, m in res["metrics"].items():
            print(f"  {name}/{key} = {m['value']:.6g} {m['unit']}")
            summary["metrics"][f"{name}/{key}"] = m
    print(json.dumps(summary))
    return 0


def main() -> int:
    ws = import_workloads()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*ws.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: per workload, see README)")
    ap.add_argument("--seconds", type=float, default=10.0, help="length of the timed region")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args, list(ws.WORKLOADS))
    wl = ws.WORKLOADS[args.workload]()
    seed = wl.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        wl.setup()
        setup_s = time.perf_counter() - _T0
        import calibration

        print(json.dumps({"setup_s": setup_s, "kernel_s": calibration.kernel_s(3)}))
    elif args.trace:
        traced(wl, seed, args.seconds, ws)
    else:
        measure(wl, seed, args.seconds, args.reference, ws)
    return 0


if __name__ == "__main__":
    sys.exit(main())
