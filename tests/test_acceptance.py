"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion. The real-dataset check is conditional: it runs only when
DGNNREC_CIAO_DIR points at a directory with interactions.tsv, social.tsv
and (optionally) item_relations.tsv at the published corpus shape.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_params, random_small_graph
from dense_reference import dense_forward
from dgnnrec import cli
from dgnnrec.bench import time_layer_steps, _graph_with_edges
from dgnnrec.evaluation import AblationVariant, evaluate, report_lines, run_ablation
from dgnnrec.hetgraph import Split, build_graph, load_edge_file, split_leave_one_out
from dgnnrec.model import FULL_VARIANT, forward
from dgnnrec.synthetic import make_planted_dataset
from dgnnrec.training import TrainingConfig, check_model_gradients, train_model


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def planted():
    ds = make_planted_dataset(seed=0)
    graph = ds.build()
    split = split_leave_one_out(graph, seed=0)
    return graph, split


@pytest.fixture(scope="module")
def trained_full(planted):
    """Full-model runs on the planted dataset for training seeds 0..2."""
    _, split = planted
    out = {}
    for seed in (0, 1, 2):
        cfg = TrainingConfig(seed=seed)
        started = time.perf_counter()
        report = run_ablation(AblationVariant.FULL, split, cfg, cutoffs=(10,))
        out[seed] = (report, time.perf_counter() - started)
    return out


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_gradient_suite():
    started = time.perf_counter()
    result = check_model_gradients(dims=(2, 4, 8), memory_units=(1, 2, 4),
                                   layers=(0, 1, 2), seed=0, h=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - started
    worst_group = max(result.worst_by_group().values())
    _report("gradient-suite",
            result.passed and worst_group <= 1e-4 and len(result.cases) >= 20
            and elapsed < 60.0,
            f"max rel err {result.max_rel_err:.2e} over {len(result.cases)} "
            f"instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. dense-oracle equivalence


def test_dense_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(50):
        graph = random_small_graph(rng)
        assert graph.num_nodes <= 20
        params = random_params(graph, dim=3, num_units=2, num_layers=2, seed=trial)
        state = forward(graph, params)
        layers_ref, hstar_ref = dense_forward(graph, params, FULL_VARIANT)
        for ours, ref in zip(state.layers, layers_ref):
            worst = max(worst, float(np.max(np.abs(ours - ref))))
        worst = max(worst, float(np.max(np.abs(state.hstar - hstar_ref))))
    elapsed = time.perf_counter() - started
    _report("dense-oracle", worst <= 1e-10 and elapsed < 60.0,
            f"max abs err {worst:.2e} over 50 graphs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. metric unit values


def test_metric_unit_values():
    num_items = 400
    graph = build_graph([(0, 0)], [], [], 1, num_items, 0)

    def hstar_for(scores):
        h = np.zeros((1 + num_items, 2))
        h[0, 0] = 1.0
        h[1:, 0] = np.asarray(scores) / 2.0
        h[1:, 1] = 1.0
        return h

    one_user = Split(graph, np.array([0]), np.array([0]), np.arange(1, 101)[None, :],
                     num_skipped=0, seed=0)

    def hit_and_ndcg(scores):
        report = evaluate(hstar_for(scores), one_user, graph, cutoffs=(10,))
        return report.hr[10], report.ndcg[10]

    scores = np.zeros(num_items)
    scores[0] = 10.0
    hit, ndcg = hit_and_ndcg(scores)
    ok_rank1 = (hit, ndcg) == (1, 1.0)

    scores = np.zeros(num_items)
    scores[1], scores[2], scores[0] = 9.0, 8.0, 7.0
    hit3, ndcg3 = hit_and_ndcg(scores)
    ok_rank3 = hit3 == 1 and ndcg3 == 0.5  # 1/log2(4), exact in binary

    # uniform-rank oracle: random scores put the positive in the top 10
    # of 101 candidates with probability 10/101
    rng = np.random.default_rng(99)
    num_users = 1000
    g2 = build_graph([(u, 0) for u in range(num_users)], [], [], num_users, 400, 0)
    hstar = rng.normal(size=(num_users + 400, 6))
    positives = rng.integers(0, 400, size=num_users)
    negatives = np.empty((num_users, 100), dtype=np.int64)
    for i, p in enumerate(positives):
        pool = np.setdiff1d(np.arange(400), [p])
        negatives[i] = rng.choice(pool, size=100, replace=False)
    split = Split(g2, np.arange(num_users, dtype=np.int64), positives.astype(np.int64),
                  negatives, num_skipped=0, seed=0)
    hr10 = evaluate(hstar, split, g2, cutoffs=(10,)).hr[10]
    ok_random = abs(hr10 - 10 / 101) < 0.03

    _report("metric-units", ok_rank1 and ok_rank3 and ok_random,
            f"rank1=({hit},{ndcg}) rank3 ndcg={ndcg3} random hr10={hr10:.4f} "
            f"(target {10 / 101:.4f})")


# ---------------------------------------------------------------------------
# 4. synthetic end-to-end


def test_synthetic_end_to_end(planted, trained_full):
    graph, split = planted
    assert (graph.num_users, graph.num_items, graph.num_relations) == (200, 500, 20)
    report, elapsed = trained_full[0]
    _report("synthetic-end-to-end",
            report.hr[10] >= 0.60 and elapsed < 120.0,
            f"hr@10 {report.hr[10]:.4f} (random baseline {10 / 101:.3f}) "
            f"in {elapsed:.1f}s with default config")


# ---------------------------------------------------------------------------
# 5. ablation ordering


def test_ablation_ordering(planted, trained_full):
    graph, split = planted
    full_hr = {seed: rep.hr[10] for seed, (rep, _) in trained_full.items()}
    failures = []
    detail = [f"full={[full_hr[s] for s in (0, 1, 2)]}"]
    reports = {}
    for variant in (AblationVariant.NO_MEMORY, AblationVariant.NO_RECALIBRATION,
                    AblationVariant.NO_LAYER_NORM, AblationVariant.NO_SOCIAL,
                    AblationVariant.NO_ITEM_RELATIONS,
                    AblationVariant.NO_SOCIAL_NO_RELATIONS):
        wins = 0
        vals = []
        for seed in (0, 1, 2):
            rep = run_ablation(variant, split, TrainingConfig(seed=seed))
            vals.append(rep.hr[10])
            wins += full_hr[seed] >= rep.hr[10]
            reports[variant, seed] = rep
        detail.append(f"{variant.value}={vals} wins={wins}/3")
        if wins < 2:
            failures.append(variant.value)

    # -ST must be bitwise-identical to Full trained on the stripped graph
    cfg = TrainingConfig(seed=0)
    rep_st = reports[AblationVariant.NO_SOCIAL_NO_RELATIONS, 0]
    stripped = build_graph(graph.interaction_pairs(), [], [],
                           graph.num_users, graph.num_items, graph.num_relations)
    split_st = split_leave_one_out(stripped, seed=0)
    rep_direct = run_ablation(AblationVariant.FULL, split_st, cfg)
    st_equal = report_lines(rep_st) == report_lines(rep_direct)

    _report("ablation-ordering", not failures and st_equal,
            "; ".join(detail) + f"; -ST bitwise equal: {st_equal}")


# ---------------------------------------------------------------------------
# 6. scaling benchmark


def test_scaling_benchmark():
    base = 30000
    g1, e1 = _graph_with_edges(base, seed=0)
    g2, e2 = _graph_with_edges(2 * base, seed=0)
    # Each ratio's two sides are timed in alternation, so load hits both alike.
    t1, t2 = time_layer_steps([(g1, 16, 8), (g2, 16, 8)], reps=5)
    edge_ratio = t2 / t1
    tm1, tm2 = time_layer_steps([(g1, 16, 8), (g1, 16, 16)], reps=5)
    unit_ratio = tm2 / tm1
    _report("scaling-benchmark", edge_ratio <= 2.5 and unit_ratio <= 2.5,
            f"|E| {e1}->{e2}: x{edge_ratio:.2f}; M 8->16: x{unit_ratio:.2f} "
            f"(both must be <= 2.5)")


# ---------------------------------------------------------------------------
# 7. conditional real-dataset check


CIAO_DIR = os.environ.get("DGNNREC_CIAO_DIR", "")


@pytest.mark.skipif(not (CIAO_DIR and (Path(CIAO_DIR) / "interactions.tsv").exists()),
                    reason="Ciao dataset not supplied (set DGNNREC_CIAO_DIR)")
def test_conditional_ciao():
    root = Path(CIAO_DIR)
    interactions = load_edge_file(root / "interactions.tsv", "interaction")
    social = load_edge_file(root / "social.tsv", "social")
    rel_path = root / "item_relations.tsv"
    item_rel = (load_edge_file(rel_path, "item_relation") if rel_path.exists()
                else np.empty((0, 2), dtype=np.int64))
    num_users = 1 + int(max(interactions[:, 0].max(), social.max()))
    num_items = 1 + int(max(interactions[:, 1].max(), item_rel[:, 0].max(initial=0)))
    num_rel = 1 + int(item_rel[:, 1].max(initial=-1))
    shape_ok = (num_users == 1925 and num_items == 15053
                and len(interactions) == 30370)
    graph = build_graph(interactions, social, item_rel, num_users, num_items, num_rel)
    split = split_leave_one_out(graph, seed=0)

    epoch_times = []
    cfg = TrainingConfig(dim=16, layers=2, memory_units=8, epochs=80, seed=0)
    params, _, _ = train_model(
        split.train_graph, cfg,
        on_epoch=lambda e, p, l, secs: epoch_times.append(secs))
    state = forward(split.train_graph, params)
    rep = evaluate(state.hstar, split, split.train_graph, cutoffs=(10,))
    mean_epoch = float(np.mean(epoch_times))
    ok = (shape_ok and 0.50 <= rep.hr[10] <= 0.60 and 0.30 <= rep.ndcg[10] <= 0.37
          and mean_epoch <= 24.7)
    _report("conditional-ciao", ok,
            f"shape_ok={shape_ok} hr@10={rep.hr[10]:.4f} ndcg@10={rep.ndcg[10]:.4f} "
            f"epoch {mean_epoch:.2f}s (limit 24.7s)")


# ---------------------------------------------------------------------------
# 8. determinism


def test_full_run_determinism(tmp_path):
    ds = make_planted_dataset(num_users=40, num_items=160, num_relations=5,
                              interactions_per_user=8, seed=2)
    data = tmp_path / "data"
    data.mkdir()
    for name, pairs in (("interactions.tsv", ds.interactions),
                        ("social.tsv", ds.social),
                        ("relations.tsv", ds.item_relations)):
        (data / name).write_text("\n".join(f"{a}\t{b}" for a, b in pairs) + "\n")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        args = ["--interactions", str(data / "interactions.tsv"),
                "--social", str(data / "social.tsv"),
                "--item-relations", str(data / "relations.tsv"),
                "--out", str(out), "--seed", "5", "--dim", "8", "--layers", "2",
                "--memory-units", "2", "--batch", "128", "--epochs", "3"]
        assert cli.main(["train", *args]) == 0
        assert cli.main(["eval", *args]) == 0
        outputs.append((out / "model.ckpt").read_bytes()
                       + (out / "metrics.tsv").read_bytes())
    _report("determinism", outputs[0] == outputs[1],
            "checkpoint + metrics bitwise identical across reruns")
