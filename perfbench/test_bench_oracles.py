"""Known answers for the benchmark's oracles, and checks that its per-trial
checks reject wrong outputs (an oracle that accepts everything fails here).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from cokpairs import rng  # noqa: E402
from cokpairs.ensembles import (  # noqa: E402
    EnsembleSpec,
    KIND_UNIFORM,
    cokernel_pairing_class,
    sample_graph,
    sample_symmetric,
)
from cokpairs.experiments import BUDGET_FLAG, CAP_FLAG  # noqa: E402
from cokpairs.graphs import ERParams, Graph, connected_components, laplacian, sample_er  # noqa: E402
from cokpairs.groups import FinAbGroup, aut_order  # noqa: E402
from cokpairs.moments import count_sur_star_pushforward, tensor_quotient_with_dual_pairing  # noqa: E402
from cokpairs.pairings import parse_paired_group  # noqa: E402
from spans import NoTracer, Tracer  # noqa: E402


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle_edges(n):
    return [(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)]


def test_complete_graph_sandpile_is_z_n_to_the_n_minus_2():
    for n in (3, 4, 5, 6, 8):
        lt = oracles.reduced_laplacian(n, complete_edges(n))
        assert oracles.bareiss_det(lt) == n ** (n - 2)
        for p in (2, 3):
            e = oracles.valuation(n, p) if n % p == 0 else 0
            want = (e,) * (n - 2) if e else ()
            assert oracles.padic_invariants(lt, p, 12) == (want, 0)
        assert oracles.corank_mod_p(lt, 2) == (n - 2 if n % 2 == 0 else 0)


def test_cycle_sandpile_is_z_n():
    for n in (3, 4, 8, 9, 12):
        lt = oracles.reduced_laplacian(n, cycle_edges(n))
        assert oracles.bareiss_det(lt) == n
        for p in (2, 3):
            want = (oracles.valuation(n, p),) if n % p == 0 else ()
            assert oracles.padic_invariants(lt, p, 8) == (want, 0)


def test_padic_exponents_sum_to_the_tree_count_valuation():
    r = random.Random(5)
    for _ in range(25):
        n = r.randint(4, 12)
        edges = oracles.er_edges(r.randrange(10**9), 0, n)
        lt = oracles.reduced_laplacian(n, edges)
        det = oracles.bareiss_det(lt)
        if det == 0:
            assert oracles.components(n, edges) > 1
            continue
        for p in (2, 3):
            v = oracles.valuation(det, p)
            lam, unresolved = oracles.padic_invariants(lt, p, v + 1)
            assert unresolved == 0 and sum(lam) == v
            assert oracles.padic_invariants(lt, p, 64) == (lam, 0)  # Python-integer path


def test_automorphism_counts():
    assert oracles.aut_order(2, (1, 1)) == 6 == oracles.surjection_count(2, 2, 2)
    assert oracles.aut_order(2, (2, 1)) == 8
    for p in (2, 3):
        for lam in ((1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1)):
            g = FinAbGroup.from_prime_types({p: lam})
            assert oracles.aut_order(p, lam) == aut_order(g, budget=10**8), (p, lam)
    assert oracles.endo_count(2, (1,) * 5) == 2**25


def test_splitmix64_matches_rng_stream():
    for seed, path in ((0, ()), (7, (3,)), (2**64 - 1, (5, 9)), (20240801, (0,))):
        s = rng.stream(seed, *path)
        want = [s.u64() for _ in range(50)]
        assert oracles.draws(oracles.stream_state(seed, *path), 50).tolist() == want
    for seed, trial in ((1, 0), (11, 4), (20240805, 399)):
        assert oracles.er_edges(seed, trial, 40) == sorted(sample_er(ERParams(40, 0.5, seed), trial).edges)
    for modulus in (4, 9):
        spec = EnsembleSpec(kind=KIND_UNIFORM, n=12, seed=3, modulus=modulus)
        assert oracles.uniform_symmetric(3, 2, 12, modulus) == [list(r) for r in sample_symmetric(spec, 2).data]


def test_below_sequence_replays_rejections():
    modulus = 2**63 + 1  # about half of all draws are rejected
    s = rng.stream(42)
    assert oracles.below_sequence(oracles.stream_state(42), modulus, 20) == [s.below(modulus) for _ in range(20)]


def test_quadratic_count_and_torsion_pairing_agree_on_small_graphs():
    # K_4: sandpile Z/4 + Z/4; the count of x in G[2] with <x, x> = 1/2 is
    # read off the matrix and off the class Gram independently
    lt = oracles.reduced_laplacian(4, complete_edges(4))
    kernel = oracles.kernel_mod_p(lt, 2)
    cls = cokernel_pairing_class(laplacian(Graph.from_edges(4, complete_edges(4))), (2,), {2: 6}, 1)
    orders, gram = oracles.parse_class(cls.text)
    assert orders == [4, 4]
    assert oracles.gram_is_perfect(orders, gram, 2)
    assert oracles.torsion_value_count(orders, gram, 2, oracles.Fraction(1, 2)) == oracles.quadratic_count(
        lt, kernel, 2, 4, 2
    )


# ---------------------------------------------------------------------------
# the per-trial checks reject corrupted outputs


def dist_record(wl, seed_r, want_rank):
    """A real (trial, class) record whose group has the given 2-rank."""
    spec = wl.spec(seed_r)
    for t in range(200):
        g = sample_graph(spec, t)
        res = cokernel_pairing_class(laplacian(g), (2,), {2: wl.cap}, connected_components(g))
        if hasattr(res, "text") and res.text.count("Z/") == want_rank:
            return {"trial": t, "class": res.text}
    raise AssertionError("no such trial")


def test_dist_check_accepts_real_classes_and_rejects_corrupted_ones():
    wl = workloads.DistER40()
    seed_r = workloads.round_seed(1, 0)
    rec = dist_record(wl, seed_r, 1)
    assert wl.check_trial(seed_r, rec) is None
    group, _, gram = rec["class"].partition("|")
    order = int(group[2:])
    wrong_grams = [f"{k}/{order}" for k in range(1, order, 2) if f"{k}/{order}" != gram]
    for bad in (
        [f"{group}|{g}" for g in wrong_grams]  # another class on the same group
        + [f"Z/{2 * order}|1/{2 * order}", "1|", "Z/2+Z/2|0/1,1/2,1/2,0/1", f"{group}|0/1"]
        + [CAP_FLAG, BUDGET_FLAG]
    ):
        assert wl.check_trial(seed_r, {"trial": rec["trial"], "class": bad}) is not None, bad
    rec2 = dist_record(wl, seed_r, 2)
    assert wl.check_trial(seed_r, rec2) is None
    assert wl.check_trial(seed_r, {"trial": rec2["trial"] + 1, "class": rec2["class"]}) is not None


def test_moment_check_rejects_a_wrong_count():
    wl = workloads.MomentUnif9()
    seed_r = workloads.round_seed(1, 0)
    target = parse_paired_group(wl.target)
    for t in range(30):
        src = tensor_quotient_with_dual_pairing(sample_symmetric(wl.spec(seed_r), t), 3)
        count = count_sur_star_pushforward(src, (target.group, target.pairing))
        assert wl.check_trial(seed_r, {"trial": t, "count": count}) is None
        assert wl.check_trial(seed_r, {"trial": t, "count": count + 1}) is not None


def test_oracle_check_rejects_disagreeing_routes():
    wl = workloads.OracleRoutes()
    seed_r = workloads.round_seed(1, 0)
    for t in (0, 1, 4, 5):  # n = 1, 2 at modulus 4 and at modulus 9
        rec = wl.trial_record(NoTracer(), seed_r, t)
        assert wl.check_trial(seed_r, rec) is None
        tally = rec["targets"][0]["lifted"]
        key = next(iter(tally), "0")
        rec["targets"][0]["lifted"] = {**tally, key: tally.get(key, 0) + 1}
        assert wl.check_trial(seed_r, rec) is not None
        rec = wl.trial_record(NoTracer(), seed_r, t)
        for route in ("congruence", "lifted", "pushforward"):
            rec["targets"][0][route] = {"9": 1}
        assert wl.check_trial(seed_r, rec) is not None


def test_conn_check_rejects_a_wrong_flag():
    wl = workloads.ConnER40()
    seed_r = workloads.round_seed(1, 0)
    for t in range(5):
        ok = connected_components(sample_graph(wl.spec(seed_r), t)) == 1
        assert wl.check_trial(seed_r, {"trial": t, "connected": ok}) is None
        assert wl.check_trial(seed_r, {"trial": t, "connected": not ok}) is not None


def test_span_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    (outer, outer_self), (inner, inner_self) = tr.self_times()
    assert (outer, inner) == ("outer", "inner")
    total = tr.spans[0][3] - tr.spans[0][2]
    assert abs(outer_self + inner_self - total) < 1e-9 and inner_self > 0
