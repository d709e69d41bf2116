"""Command-line interface for sampling, classification, experiments, and
the lemma verification table."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from functools import partial

from .ensembles import (
    CapExceeded,
    EnsembleSpec,
    KIND_ALPHA,
    KIND_ER,
    KIND_UNIFORM,
    EntryDistribution,
    cokernel_pairing_class,
    default_cap,
    sample_graph,
    sample_symmetric,
)
from .errors import BudgetExceeded, NotSymmetric
from .experiments import (
    ExperimentConfig,
    emit_plot_data,
    run_connectivity,
    run_distribution,
    run_moment,
)
from .graphs import connected_components, laplacian, parse_graph
from .groups import FinAbGroup
from .intmat import IntMatrix
from .modmaps import ModuleMap
from .theory import cl_constant, code_distance, depth, lift_code_check, special_pair_census


def format_matrix(m: IntMatrix) -> str:
    return "; ".join(" ".join(str(x) for x in row) for row in m.data)


def parse_matrix(text: str) -> IntMatrix:
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            rows.append([int(tok) for tok in part.replace(",", " ").split()])
    return IntMatrix.from_rows(rows)


def _add_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", type=str, default=None, help="output path prefix")
    p.add_argument("--config", type=str, default=None, help="JSON config file")


def _add_ensemble(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--kind", choices=[KIND_ER, KIND_UNIFORM, KIND_ALPHA], default=KIND_ER)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--q", type=float, default=0.5, help="edge probability (ER)")
    p.add_argument("--modulus", type=int, default=8, help="residue modulus (matrix kinds)")
    p.add_argument("--support", type=str, default=None, help="comma-separated entries")
    p.add_argument("--weights", type=str, default=None, help="comma-separated fractions")
    p.add_argument("--alpha", type=str, default=None, help="balance parameter (fraction)")


def _ensemble_from_args(args) -> EnsembleSpec:
    dist = None
    alpha = None
    if args.kind == KIND_ALPHA:
        missing = [f"--{k}" for k in ("support", "weights", "alpha") if getattr(args, k) is None]
        if missing:
            raise ValueError(f"--kind {KIND_ALPHA} needs {', '.join(missing)}")
        support = tuple(int(x) for x in args.support.split(","))
        weights = tuple(Fraction(x) for x in args.weights.split(","))
        dist = EntryDistribution(support, weights)
        alpha = Fraction(args.alpha)
    return EnsembleSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        modulus=args.modulus if args.kind != KIND_ER else 0,
        q=args.q if args.kind == KIND_ER else 0.0,
        entry_dist=dist,
        alpha=alpha,
    )


def _config_from_args(args, **fields) -> ExperimentConfig:
    """The run's config; fields a subcommand does not take keep their defaults."""
    if args.config:
        with open(args.config) as fh:
            return ExperimentConfig.from_dict(json.load(fh))
    return ExperimentConfig(
        ensemble=_ensemble_from_args(args),
        trials=args.trials,
        jobs=args.jobs,
        out=args.out,
        **fields,
    )


def cmd_sample(args):
    spec = _ensemble_from_args(args)
    if args.trial < 0:
        raise ValueError(f"trial must be >= 0, got {args.trial}")
    if spec.kind == KIND_ER:
        return lambda: print(sample_graph(spec, args.trial).text())
    return lambda: print(format_matrix(sample_symmetric(spec, args.trial)))


def cmd_classify(args):
    if args.graph:
        g = parse_graph(args.graph)
        m = laplacian(g)
        free_rank = connected_components(g)
    else:
        m = parse_matrix(args.matrix if args.matrix is not None else sys.stdin.read())
        if not m.rows:
            raise ValueError("the matrix is empty")
        free_rank = args.free_rank
    if not m.is_symmetric():
        raise NotSymmetric("the matrix is not symmetric")
    if free_rank < 0:
        raise ValueError(f"free rank must be >= 0, got {free_rank}")
    primes = tuple(int(p) for p in args.primes.split(","))
    if len(set(primes)) < len(primes):
        raise ValueError(f"a prime is repeated in {args.primes}")
    caps = {p: default_cap(p, args.order_bound) for p in primes}
    return partial(_classify, m, primes, caps, free_rank)


def _classify(m, primes, caps, free_rank) -> int:
    try:
        res = cokernel_pairing_class(m, primes, caps, free_rank)
    except BudgetExceeded as e:
        print(f"budget_exceeded: {e}")
        return 1
    if isinstance(res, CapExceeded):
        print(f"cap_exceeded p={res.prime}: {res.detail}")
        return 1
    print(res.text)
    print(f"id {res.digest}")
    return 0


def cmd_distribution(args):
    primes = tuple(int(p) for p in args.primes.split(","))
    cfg = _config_from_args(args, primes=primes, order_bound=args.order_bound)
    return partial(_distribution, cfg, args.plot_csv)


def _distribution(cfg: ExperimentConfig, plot_csv: str | None) -> None:
    rep = run_distribution(cfg)
    print(f"# {rep.kind}: {rep.config['trials']} trials, primes {rep.config['primes']}")
    for row in rep.rows:
        if row.count or (row.predicted or 0) * rep.config["trials"] >= 1:
            pred = f"{row.predicted:.5f}" if row.predicted is not None else "-"
            print(
                f"{row.key:50s} {row.count:6d} {row.frequency:.5f} "
                f"[{row.ci_low:.5f},{row.ci_high:.5f}] pred {pred}"
            )
    print(f"flagged: {rep.flagged}")
    c = rep.chi_square
    pvalue = f"{c['pvalue']:.4f}" if c["pvalue"] is not None else "-"
    print(f"chi2 = {c['statistic']:.2f}, df = {c['df']}, p = {pvalue}")
    if plot_csv:
        emit_plot_data(rep, plot_csv)


def cmd_moment(args):
    return partial(_moment, _config_from_args(args, target=args.target))


def _moment(cfg: ExperimentConfig) -> None:
    rep = run_moment(cfg)
    m = rep.moment
    stderr = f"{m['stderr']:.5f}" if m["stderr"] is not None else "-"
    print(
        f"target {m['target']}: mean = {m['mean']} ({m['mean_float']:.5f}), "
        f"stderr = {stderr}, predicted = {m['predicted']:.5f}, "
        f"|dev| = {m['abs_deviation']:.5f}, within 3 sigma: {m['within_3_sigma']}"
    )
    print(f"flagged: {rep.flagged}")


def cmd_connectivity(args):
    cfg = _config_from_args(args)
    if cfg.ensemble.kind != KIND_ER:
        raise ValueError("connectivity runs need an ER ensemble")
    return partial(_connectivity, cfg)


def _connectivity(cfg: ExperimentConfig) -> None:
    c = run_connectivity(cfg).connectivity
    print(
        f"connected {c['connected']}/{cfg.trials} = {c['fraction']:.5f} "
        f"[{c['ci_low']:.5f},{c['ci_high']:.5f}]"
    )


def cmd_constants(args):
    lines = []
    for p in (int(x) for x in args.primes.split(",")):
        v, tail = cl_constant(p, args.truncation)
        lines.append(f"p={p}: prod_k (1 - p^(1-2k)) = {v}  (tail bound {tail})")
    return partial(print, "\n".join(lines))


def cmd_verify_lemmas(args):
    return partial(_verify_lemmas, args.seed)


def _verify_lemmas(seed: int) -> int:
    failures = 0
    print(f"{'check':34s} {'instance':24s} {'predicted':>10s} {'observed':>10s} verdict")

    for p in (2, 3):
        for lam in ((1,), (2,), (1, 1)):
            for n in (2, 3):
                if len(lam) > n:
                    continue
                g = FinAbGroup.from_prime_types({p: lam})
                cols = [
                    tuple(1 if i == j else 0 for i in range(len(lam))) for j in range(n)
                ]
                f = ModuleMap.from_matrix(g.exponent**2, g, cols)
                res = special_pair_census(f, seed=seed)
                ok = res.kernel_size == res.predicted and res.d_of_a_failures == 0
                failures += not ok
                print(
                    f"{'special pair count':34s} p={p} lam={lam} n={n}"
                    f"{'':6s} {res.predicted:>10d} {res.kernel_size:>10d} "
                    f"{'pass' if ok else 'FAIL'}"
                )

    z2 = FinAbGroup.from_orders([2])
    ones = ModuleMap.from_matrix(4, z2, [(1,), (1,), (1,)])
    ok = lift_code_check(ones, trials=20, seed=seed)
    failures += not ok
    print(f"{'lifts keep code distance':34s} {'all-ones (Z/4)^3 -> Z/2':24s} {'true':>10s} {str(ok).lower():>10s} {'pass' if ok else 'FAIL'}")

    delta = Fraction(2, 5)
    all_ok = True
    for images in itertools.product([(0,), (1,)], repeat=3):
        f = ModuleMap.from_matrix(4, z2, list(images))
        lhs = depth(f, delta) == 1
        rhs = code_distance(f) >= delta * 3
        all_ok &= lhs == rhs
    failures += not all_ok
    print(f"{'depth 1 iff code of distance dn':34s} {'exhaustive n=3, G=Z/2':24s} {'true':>10s} {str(all_ok).lower():>10s} {'pass' if all_ok else 'FAIL'}")

    print(f"{failures} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cokpairs",
        description="Sandpile and cokernel pairing distributions: sampling, "
        "classification, and Monte Carlo experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="print one sampled graph or matrix")
    _add_ensemble(p)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("classify", help="classify a matrix or graph Laplacian")
    p.add_argument("--matrix", type=str, default=None, help="rows 'a b; c d' (stdin if omitted)")
    p.add_argument("--graph", type=str, default=None, help="graph text 'n|a-b,c-d'")
    p.add_argument("--free-rank", type=int, default=0)
    p.add_argument("--primes", type=str, default="2")
    p.add_argument("--order-bound", type=int, default=64)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("distribution", help="class distribution experiment")
    _add_ensemble(p)
    _add_run(p)
    p.add_argument("--primes", type=str, default="2")
    p.add_argument("--order-bound", type=int, default=64)
    p.add_argument("--plot-csv", type=str, default=None)
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("moment", help="Sur* moment experiment")
    _add_ensemble(p)
    _add_run(p)
    p.add_argument("--target", type=str, default="Z/2|1/2", help="paired group text")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("connectivity", help="connected-fraction experiment")
    _add_ensemble(p)
    _add_run(p)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("verify-lemmas", help="brute-force lemma verification table")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("constants", help="normalization constants")
    p.add_argument("--primes", type=str, default="2")
    p.add_argument("--truncation", type=int, default=40)
    p.set_defaults(func=cmd_constants)

    args = ap.parse_args(argv)
    # each cmd_* checks its inputs and returns the work: a bad input or --config
    # file exits with one line and code 2; an error in the work keeps its traceback
    try:
        work = args.func(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"cokpairs {args.command}: error: {e}\n")
        raise SystemExit(2) from None
    return work() or 0


if __name__ == "__main__":
    sys.exit(main())
