"""The four benchmark workloads.

Each workload runs in rounds: round r is one call of the program's entry
point on a fixed number of trials of the ensemble seeded `round_seed(seed, r)`.
`run_round` is that call (the untraced path); `traced_round` makes the same
layer calls in the same order with a span around each one.  Both leave one
record per trial in a JSONL trial log, and `check_trial` verifies a record
against the exact computations in `oracles`, never against the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import oracles
from spans import NoTracer
from cokpairs.ensembles import (
    KIND_ER,
    KIND_UNIFORM,
    CapExceeded,
    EnsembleSpec,
    default_cap,
    sample_graph,
    sample_symmetric,
    sylow_paired_group,
)
from cokpairs.errors import BudgetExceeded
from cokpairs.experiments import (
    BUDGET_FLAG,
    CAP_FLAG,
    ClassRow,
    ExperimentConfig,
    ExperimentReport,
    pooled_chi_square,
    prediction_table,
    run_connectivity,
    run_distribution,
    run_moment,
)
from cokpairs.graphs import connected_components, laplacian
from cokpairs.groups import FinAbGroup, enumerate_surjections
from cokpairs.intmat import IntMatrix
from cokpairs.modmaps import ModuleMap
from cokpairs.moments import (
    count_sur_star_pushforward,
    dual_gram_numerators,
    lifted_pairing_key,
    random_lift,
    sur_star_congruence_table,
    tensor_quotient_with_dual_pairing,
)
from cokpairs.pairings import (
    PairedGroup,
    canonical_pair_class,
    gram_from_scaled_blocks,
    pairing_class_table,
    parse_paired_group,
    pushforward,
)
from cokpairs.theory import groups_at_primes


def round_seed(seed: int, r: int) -> int:
    """Ensemble seed of round r: distinct rounds draw distinct inputs."""
    return seed * 1_000_000 + r


def read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def report_from_file(path: str) -> ExperimentReport:
    """An ExperimentReport rebuilt from the JSON summary its run wrote."""
    with open(path) as fh:
        d = json.load(fh)
    return ExperimentReport(
        kind=d["kind"],
        config=d["config"],
        rows=[ClassRow(**row) for row in d["rows"]],
        flagged=d["flagged"],
        chi_square=d["chi_square"],
        moment=d["moment"],
        connectivity=d["connectivity"],
        prediction_note=d["prediction_note"],
        versions=d["versions"],
        wallclock=d["wallclock_seconds"],
    )


class Workload:
    """What the workloads share; each sets the four class attributes and
    defines run_round, traced_round and check_trial."""

    name = ""
    entry_point = ""
    default_seed = 0
    round_trials = 1

    def setup(self, tracer=None) -> None:
        pass

    def setup_errors(self) -> list[str]:
        return []

    def round_records(self, out: str) -> list[dict]:
        return read_jsonl(out + ".jsonl")

    def round_digest_text(self, out: str) -> str:
        return report_from_file(out + ".json").canonical_json()

    def round_errors(self, seed_r: int, out: str, records: list[dict]) -> list[str]:
        return []

    def trace_report(self, tracer, reference_out: str, records: list[dict], out: str) -> None:
        """The report layer's calls on one traced round: the untraced run's
        report is rebuilt from its file and serialized and written again."""
        rep = report_from_file(reference_out + ".json")
        with tracer.span("canonical_json"):
            rep.canonical_json()
        with tracer.span("write_outputs"):
            with open(out + ".json", "w") as fh:
                fh.write(rep.to_json() + "\n")
            write_jsonl(out + ".jsonl", records)


# ---------------------------------------------------------------------------


class DistER40(Workload):
    """run_distribution on ER(40, 1/2) at p = 2, order bound 64."""

    name = "dist_er40"
    entry_point = "cokpairs.experiments.run_distribution"
    default_seed = 20240801
    round_trials = 40
    n, q, primes, order_bound = 40, 0.5, (2,), 64

    def __init__(self):
        self.cap = default_cap(2, self.order_bound)
        self.cap_exceeded = 0
        self.classify_inputs: set[str] = set()

    def setup(self, tracer=None) -> None:
        if tracer is None:
            self.predicted, _ = prediction_table(self.primes, self.order_bound)
            return
        self.groups_skipped = 0
        with tracer.span("groups_at_primes"):
            groups = groups_at_primes(self.primes, self.order_bound)
        for g in groups:
            try:
                with tracer.span("pairing_class_table"):
                    pairing_class_table(g, perfect_only=True)
            except BudgetExceeded:
                self.groups_skipped += 1
        with tracer.span("prediction_table"):
            self.predicted, _ = prediction_table(self.primes, self.order_bound)
        self.groups = len(groups)

    def setup_errors(self) -> list[str]:
        errors = []
        classes = set()
        for g in groups_at_primes(self.primes, self.order_bound):
            try:
                table = pairing_class_table(g, perfect_only=True)
            except BudgetExceeded:
                continue
            aut = oracles.aut_order(2, g.partition(2)) if g.types else 1
            for info in table:
                classes.add(info.class_id.text)
                if info.gram_count * info.aut_preserving != aut:
                    errors.append(
                        f"{info.class_id.text}: {info.gram_count} Grams x {info.aut_preserving} "
                        f"stabilizer != |Aut(G)| = {aut}"
                    )
        if classes != set(self.predicted):
            errors.append("predicted classes differ from the class tables")
        const = float(oracles.cl_product(2, 40))
        if self.predicted.get("1|") != const or self.predicted.get("Z/2|1/2") != const / 2:
            errors.append(
                f"trivial / Z/2|1/2 probabilities {self.predicted.get('1|')}, "
                f"{self.predicted.get('Z/2|1/2')} != {const}, {const / 2}"
            )
        return errors

    def spec(self, seed_r: int) -> EnsembleSpec:
        return EnsembleSpec(kind=KIND_ER, n=self.n, seed=seed_r, q=self.q)

    def config(self, seed_r, out):
        return ExperimentConfig(
            ensemble=self.spec(seed_r),
            primes=self.primes,
            order_bound=self.order_bound,
            trials=self.round_trials,
            out=out,
        )

    def run_round(self, seed_r, out):
        run_distribution(self.config(seed_r, out))

    def traced_round(self, tracer, seed_r, reference_out, out) -> list[dict]:
        spec = self.spec(seed_r)
        records = []
        for t in range(self.round_trials):
            tracer.trial = t
            with tracer.span("sample_graph"):
                g = sample_graph(spec, t)
            with tracer.span("laplacian"):
                m = laplacian(g)
            with tracer.span("connected_components"):
                free_rank = connected_components(g)
            records.append({"trial": t, "class": self._classify(tracer, m, free_rank)})
        tracer.trial = None
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec["class"]] = counts.get(rec["class"], 0) + 1
        with tracer.span("pooled_chi_square"):
            pooled_chi_square(counts, self.round_trials, self.predicted)
        self.trace_report(tracer, reference_out, records, out)
        return records

    def _classify(self, tracer, m: IntMatrix, free_rank: int) -> str:
        """cokernel_pairing_class, one layer call at a time."""
        rows = [list(r) for r in m.data]
        parts = []
        for p in self.primes:
            with tracer.span("sylow_paired_group"):
                res = sylow_paired_group(rows, p, self.cap, free_rank, side="group")
            if isinstance(res, CapExceeded):
                self.cap_exceeded += 1
                return CAP_FLAG
            parts.append(res)
        with tracer.span("canonical_pair_class"):
            group = FinAbGroup.trivial()
            blocks = {}
            for g, gram in parts:
                group = group.direct_sum(g)
                for p, _ in g.types:
                    blocks[p] = gram.scaled_block(p)
            pg = PairedGroup(group, gram_from_scaled_blocks(group, blocks))
            try:
                cls = canonical_pair_class(pg).text
            except BudgetExceeded:
                cls = BUDGET_FLAG
        self.classify_inputs.add(pg.text())
        return cls

    def check_trial(self, seed_r: int, rec: dict) -> str | None:
        lt = oracles.reduced_laplacian(self.n, oracles.er_edges(seed_r, rec["trial"], self.n))
        lam, unresolved = oracles.padic_invariants(lt, 2, 30)
        if unresolved:
            det = oracles.bareiss_det(lt)
            if det == 0:
                return "disconnected graph: the reduced Laplacian is singular"
            lam, unresolved = oracles.padic_invariants(lt, 2, oracles.valuation(det, 2) + 1)
        cls = rec["class"]
        top = lam[0] if lam else 0
        if cls == CAP_FLAG:
            return None if top >= self.cap else f"cap flag on type {lam} below cap {self.cap}"
        if top >= self.cap:
            return f"type {lam} reaches cap {self.cap} but was classified as {cls}"
        if cls == BUDGET_FLAG:
            ok = oracles.endo_count(2, lam) > oracles.HOM_BUDGET
            return None if ok else f"budget flag on type {lam} with |End| within budget"
        orders, gram = oracles.parse_class(cls)
        kernel = oracles.kernel_mod_p(lt, 2)
        if orders != [2**e for e in lam]:
            return f"group of {cls} is not the 2-part of the tree count, type {lam}"
        if len(orders) != len(kernel):
            return f"rank of {cls} != corank {len(kernel)} of the reduced Laplacian mod 2"
        if not oracles.gram_is_perfect(orders, gram, 2):
            return f"Gram of {cls} is not perfect"
        half = oracles.torsion_value_count(orders, gram, 2, Fraction(1, 2))
        want = oracles.quadratic_count(lt, kernel, 2, 4, 2)
        if half != want:
            return f"{cls}: {half} elements of G[2] with x.x = 1/2, kernel count {want}"
        return None


class MomentUnif9(Workload):
    """run_moment on uniform mod-9 matrices, n = 40, target Z/3|1/3."""

    name = "moment_unif9"
    entry_point = "cokpairs.experiments.run_moment"
    default_seed = 20240806
    round_trials = 50
    n, modulus, target = 40, 9, "Z/3|1/3"

    def spec(self, seed_r: int) -> EnsembleSpec:
        return EnsembleSpec(kind=KIND_UNIFORM, n=self.n, seed=seed_r, modulus=self.modulus)

    def config(self, seed_r, out):
        return ExperimentConfig(
            ensemble=self.spec(seed_r), trials=self.round_trials, out=out, target=self.target
        )

    def run_round(self, seed_r, out):
        run_moment(self.config(seed_r, out))

    def traced_round(self, tracer, seed_r, reference_out, out) -> list[dict]:
        spec = self.spec(seed_r)
        target = parse_paired_group(self.target)
        b = target.group.exponent
        records = []
        for t in range(self.round_trials):
            tracer.trial = t
            with tracer.span("sample_symmetric"):
                m = sample_symmetric(spec, t)
            try:
                with tracer.span("tensor_quotient_with_dual_pairing"):
                    src_group, src_gram = tensor_quotient_with_dual_pairing(m, b, False)
                with tracer.span("count_sur_star_pushforward"):
                    c = count_sur_star_pushforward(
                        (src_group, src_gram), (target.group, target.pairing)
                    )
                rec = {"group": src_group.text(), "gram": src_gram.text(), "count": c}
            except BudgetExceeded:
                rec = {"group": "", "gram": "", "count": None}
            records.append({"trial": t, "seed": seed_r, **rec})
        tracer.trial = None
        self.trace_report(tracer, reference_out, records, out)
        return records

    def own_matrix(self, seed_r: int, trial: int) -> list[list[int]]:
        return oracles.uniform_symmetric(seed_r, trial, self.n, self.modulus)

    def check_trial(self, seed_r, rec):
        own = self.own_matrix(seed_r, rec["trial"])
        if [list(r) for r in sample_symmetric(self.spec(seed_r), rec["trial"]).data] != own:
            return "sampled matrix differs from the splitmix64 draw"
        want = oracles.quadratic_count(own, oracles.kernel_mod_p(own, 3), 3, 9, 3)
        return None if rec["count"] == want else f"count {rec['count']} != {want}"

    def round_errors(self, seed_r, out, records):
        with open(out + ".json") as fh:
            mean = Fraction(json.load(fh)["moment"]["mean"])
        total = 0
        for rec in records:
            own = self.own_matrix(seed_r, rec["trial"])
            total += oracles.quadratic_count(own, oracles.kernel_mod_p(own, 3), 3, 9, 3)
        want = Fraction(total, self.round_trials)
        return [] if mean == want else [f"round seed {seed_r}: mean {mean} != {want}"]


class ConnER40(Workload):
    """run_connectivity on ER(40, 1/2)."""

    name = "conn_er40"
    entry_point = "cokpairs.experiments.run_connectivity"
    default_seed = 20240805
    round_trials = 400
    n, q = 40, 0.5

    def spec(self, seed_r: int) -> EnsembleSpec:
        return EnsembleSpec(kind=KIND_ER, n=self.n, seed=seed_r, q=self.q)

    def config(self, seed_r, out):
        return ExperimentConfig(ensemble=self.spec(seed_r), trials=self.round_trials, out=out)

    def run_round(self, seed_r, out):
        run_connectivity(self.config(seed_r, out))

    def traced_round(self, tracer, seed_r, reference_out, out) -> list[dict]:
        spec = self.spec(seed_r)
        records = []
        for t in range(self.round_trials):
            tracer.trial = t
            with tracer.span("sample_graph"):
                g = sample_graph(spec, t)
            with tracer.span("connected_components"):
                records.append({"trial": t, "connected": connected_components(g) == 1})
        tracer.trial = None
        self.trace_report(tracer, reference_out, records, out)
        return records

    def check_trial(self, seed_r, rec):
        edges = oracles.er_edges(seed_r, rec["trial"], self.n)
        if sorted(sample_graph(self.spec(seed_r), rec["trial"]).edges) != edges:
            return "sampled edge set differs from the splitmix64 draw"
        want = oracles.components(self.n, edges) == 1
        return None if rec["connected"] == want else f"connected {rec['connected']} != {want}"

    def round_errors(self, seed_r, out, records):
        with open(out + ".json") as fh:
            got = json.load(fh)["connectivity"]["connected"]
        want = sum(oracles.components(self.n, oracles.er_edges(seed_r, r["trial"], self.n)) == 1 for r in records)
        return [] if got == want else [f"round seed {seed_r}: {got} connected, union-find {want}"]


# ---------------------------------------------------------------------------


class OracleRoutes(Workload):
    """The three Sur* routes of acceptance criterion 2 on small matrices.

    A round is eight matrices, one for each (modulus, n) in {4, 9} x {1..4},
    with entries from the benchmark's own splitmix64 draw, so every round
    holds the same mix of sizes.  Each matrix is checked against every target
    (Z/p)^k: k <= 3 for modulus 4 (p = 2), k <= 2 for modulus 9 (p = 3).
    """

    name = "oracle_routes"
    entry_point = (
        "cokpairs.moments.sur_star_congruence_table + lifted_pairing_key(random_lift) "
        "+ pairings.pushforward over enumerate_surjections"
    )
    default_seed = 303
    shapes = [(4, n) for n in range(1, 5)] + [(9, n) for n in range(1, 5)]
    round_trials = len(shapes)
    targets = {4: (2, 3), 9: (3, 2)}  # modulus -> (p, largest k)

    def __init__(self):
        self.maps = 0
        self.surjections = 0

    def run_round(self, seed_r: int, out: str) -> None:
        self.traced_round(NoTracer(), seed_r, None, out)

    def traced_round(self, tracer, seed_r, reference_out, out) -> list[dict]:
        records = [self.trial_record(tracer, seed_r, t) for t in range(self.round_trials)]
        with tracer.span("write_outputs"):
            write_jsonl(out + ".jsonl", records)
        return records

    def trial_record(self, tracer, seed_r: int, t: int) -> dict:
        """One matrix with the three routes' tallies for each of its targets."""
        modulus, n = self.shapes[t]
        tracer.trial = t
        rows = oracles.uniform_symmetric(seed_r, t, n, modulus)
        m = IntMatrix.from_rows(rows)
        p, kmax = self.targets[modulus]
        lift_seed = oracles.stream_state(seed_r, t, 1)
        tallies = []
        for k in range(1, kmax + 1):
            group = FinAbGroup.from_orders([p] * k)
            tallies.append({"target": group.text(), **self._routes(tracer, m, group, p, lift_seed)})
        tracer.trial = None
        return {"trial": t, "modulus": modulus, "matrix": rows, "targets": tallies}

    def _routes(self, tracer, m: IntMatrix, group: FinAbGroup, p: int, lift_seed: int) -> dict:
        lam = group.partition(p)
        r, n = len(lam), m.rows
        pairs = [(i, j) for i in range(r) for j in range(i, r)]

        def key_of(nums):
            return ",".join(str(nums[ij]) for ij in pairs)

        with tracer.span("sur_star_congruence_table"):
            table = sur_star_congruence_table(m, group)[p]
        congruence = {",".join(map(str, key)): c for key, c in table.items()}

        lifted: dict[str, int] = {}
        with tracer.span("lifted_route"):
            maps = itertools.product(*[itertools.product(*[range(p**e) for e in lam]) for _ in range(n)])
            for c, cols in enumerate(maps):
                f = ModuleMap.from_matrix(group.exponent**2, group, list(cols))
                key = lifted_pairing_key(m, f, random_lift(f, lift_seed + c))
                if key is not None and f.surjective_avoiding():
                    lifted[key_of(key[p])] = lifted.get(key_of(key[p]), 0) + 1
                self.maps += 1

        push: dict[str, int] = {}
        with tracer.span("pushforward_route"):
            with tracer.span("tensor_quotient_with_dual_pairing"):
                src_group, src_gram = tensor_quotient_with_dual_pairing(m, group.exponent)
            for f in enumerate_surjections(src_group, group):
                k = key_of(dual_gram_numerators(group, pushforward(f, src_gram), p))
                push[k] = push.get(k, 0) + 1
                self.surjections += 1
        return {"congruence": congruence, "lifted": lifted, "pushforward": push}

    def round_digest_text(self, out: str) -> str:
        return json.dumps(self.round_records(out), sort_keys=True)

    def check_trial(self, seed_r, rec):
        modulus, n = self.shapes[rec["trial"]]
        rows = oracles.uniform_symmetric(seed_r, rec["trial"], n, modulus)
        if rec["matrix"] != rows:
            return "matrix differs from the splitmix64 draw"
        p, kmax = self.targets[modulus]
        corank = oracles.corank_mod_p(rows, p)
        wanted = [FinAbGroup.from_orders([p] * k).text() for k in range(1, kmax + 1)]
        if [t["target"] for t in rec["targets"]] != wanted:
            return f"targets {[t['target'] for t in rec['targets']]} != {wanted}"
        for k, t in enumerate(rec["targets"], start=1):
            if not t["congruence"] == t["lifted"] == t["pushforward"]:
                return f"{t['target']}: routes disagree"
            total = sum(t["congruence"].values())
            if total != oracles.surjection_count(p, corank, k):
                return f"{t['target']}: {total} surjections, corank {corank} gives {oracles.surjection_count(p, corank, k)}"
            if t["congruence"] != oracles.kernel_form_tally(rows, p, k):
                return f"{t['target']}: tally {t['congruence']} != {oracles.kernel_form_tally(rows, p, k)}"
        return None


WORKLOADS = {w.name: w for w in (DistER40, MomentUnif9, OracleRoutes, ConnER40)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]

