"""Batched GNN pipeline — block-diagonal scoring/training vs the scalar loop.

Not a paper experiment: this bench pins the raw-speed win of batching
the enclosing-subgraph GNN (``repro.attacks.muxlink.gnn``). A whole
population of candidate links is scored per call — vectorised subgraph
extraction over the CSR adjacency snapshot, one block-diagonal sparse
conv pass over the stacked node set, segment centre+mean readout, one
MLP-head batch — and training slices each minibatch out of a per-epoch
permutation of operators and features built once per fit. The reference
side is the historical one-subgraph-at-a-time pipeline, kept as a test
oracle in ``tests/oracles.py``.

Every timing is the minimum over N calls after one untimed warm-up call
(``fit_repeats`` fits, ``score_repeats`` scoring passes), so one-off
costs such as first-touch allocation and scheduler noise do not land in
the ratio.

The two pipelines are numerically equivalent but not bit-identical (batched
BLAS reductions reassociate floating-point sums), so the bench asserts
``max |Δlogit|`` under a tight tolerance at every scale, plus — at full
scale — the batched path scoring >= 64 links at >= 4x the scalar loop.
Under ``REPRO_BENCH_GUARD`` (the CI smoke guard) batched must merely
never lose to scalar.

``python benchmarks/bench_gnn_batch.py`` emits ``BENCH_gnn_batch.json``
(override with ``BENCH_GNN_BATCH_OUT``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    from conftest import print_header, scaled
except ImportError:  # direct `python benchmarks/bench_....py` execution
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import print_header, scaled

# The reference side is a test oracle, kept under tests/.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import scalar_fit, scalar_score_links  # noqa: E402

from repro.attacks.muxlink.gnn import GnnLinkPredictor
from repro.attacks.muxlink.graph import extract_observed
from repro.circuits import load_circuit
from repro.ec.genotype import random_genotype
from repro.locking import lock_with_genes
from repro.registry import PRIMITIVES

_CIRCUIT = "c1355_syn"
_GENES = 48
_FIT_REPEATS = 3
_SCORE_REPEATS = 9
_EPOCHS = 6
_N_TRAIN = 160
_TARGET_SCORE_SPEEDUP = 4.0
_MIN_FULL_SCALE_LINKS = 64
_LOGIT_TOL = 1e-8


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _candidate_links(graph, queries) -> list[tuple[int, int]]:
    pairs = []
    for q in queries:
        d0, d1 = graph.index[q.d0], graph.index[q.d1]
        for consumer in q.consumers:
            c = graph.index[consumer]
            pairs.extend([(d0, c), (d1, c)])
    return pairs


def _best_of(fn, repeats: int):
    """(min seconds over ``repeats`` calls, last result), after a warm-up."""
    result = fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_gnn_batch(out_json: str | None = None) -> dict:
    scale = _scale()
    n_genes = scaled(_GENES, minimum=8)
    epochs = scaled(_EPOCHS, minimum=1)
    n_train = scaled(_N_TRAIN, minimum=24)
    fit_repeats = scaled(_FIT_REPEATS, minimum=1)
    score_repeats = scaled(_SCORE_REPEATS, minimum=1)

    base = load_circuit(_CIRCUIT)
    genotype = random_genotype(
        base, n_genes, np.random.default_rng(11),
        alphabet=tuple(sorted(PRIMITIVES.available())),
    )
    locked = lock_with_genes(base, genotype)
    graph, queries = extract_observed(locked.netlist)
    pairs = _candidate_links(graph, queries)

    # -- training: batched minibatches vs the per-sample loop ----------
    # Refitting with the same seed is deterministic, so every repeat
    # leaves the same weights behind.
    auto = GnnLinkPredictor(epochs=epochs, n_train=n_train)
    fit_auto_s, _ = _best_of(
        lambda: auto.fit(graph, np.random.default_rng(5)), fit_repeats
    )
    off = GnnLinkPredictor(epochs=epochs, n_train=n_train)
    fit_off_s, _ = _best_of(
        lambda: scalar_fit(off, graph, np.random.default_rng(5)), fit_repeats
    )

    assert np.allclose(auto.train_history, off.train_history, atol=1e-8), (
        "batched training diverged from the per-sample loop"
    )

    # -- scoring: one block-diagonal batch vs the per-link loop --------
    batched_s, batched = _best_of(lambda: auto.score_links(pairs), score_repeats)
    looped_s, looped = _best_of(
        lambda: scalar_score_links(auto, pairs), score_repeats
    )

    max_dlogit = float(np.max(np.abs(batched - looped))) if pairs else 0.0

    report = {
        "circuit": _CIRCUIT,
        "n_genes": n_genes,
        "n_links": len(pairs),
        "epochs": epochs,
        "n_train": n_train,
        "fit_repeats": fit_repeats,
        "score_repeats": score_repeats,
        "timing": "min over repeats after one warm-up call",
        "fit_auto_s": fit_auto_s,
        "fit_off_s": fit_off_s,
        "fit_speedup": fit_off_s / fit_auto_s if fit_auto_s > 0 else None,
        "batched_score_s": batched_s,
        "looped_score_s": looped_s,
        "score_speedup": looped_s / batched_s if batched_s > 0 else None,
        "target_score_speedup": _TARGET_SCORE_SPEEDUP,
        "max_abs_dlogit": max_dlogit,
        "logit_tol": _LOGIT_TOL,
        "asserted": scale >= 1.0,
        "guarded": bool(os.environ.get("REPRO_BENCH_GUARD")),
    }
    # Numerical equivalence holds at every scale.
    assert max_dlogit < _LOGIT_TOL, (
        f"batched logits drifted {max_dlogit:g} from the scalar loop "
        f"(tolerance {_LOGIT_TOL:g}): {report}"
    )
    if report["asserted"]:
        assert len(pairs) >= _MIN_FULL_SCALE_LINKS, (
            f"full-scale bench must score >= {_MIN_FULL_SCALE_LINKS} links, "
            f"got {len(pairs)}"
        )
        assert report["score_speedup"] >= _TARGET_SCORE_SPEEDUP, (
            f"batched GNN scoring only {report['score_speedup']:.2f}x vs "
            f"per-link loop (target {_TARGET_SCORE_SPEEDUP}x): {report}"
        )
    if report["guarded"]:
        # CI perf-regression guard (smoke scale): the batched paths must
        # never lose to the loops they replace.
        assert report["score_speedup"] >= 1.0, report
        assert report["fit_speedup"] >= 1.0, report
    if out_json:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_gnn_batch_speed(benchmark):
    report = benchmark.pedantic(run_gnn_batch, rounds=1, iterations=1)
    print_header(
        "GNNBATCH",
        "Block-diagonal batched GNN scoring/training vs scalar loop",
        "ROADMAP: raw-speed fitness core (batched GNN subgraph scoring "
        "was the remaining per-link wall-clock)",
    )
    for key, value in report.items():
        print(f"  {key}: {value}")
    assert report["score_speedup"] is not None


if __name__ == "__main__":
    out = os.environ.get("BENCH_GNN_BATCH_OUT", "BENCH_gnn_batch.json")
    summary = run_gnn_batch(out_json=out)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out}")
