"""Delta re-locking and population-batched predictor scoring — raw speed.

Not a paper experiment: this bench pins the two hot-path wins of the
raw-speed fitness core. (1) ``DeltaRelocker`` applies a genotype as
incremental deltas to a shared immutable base netlist (copy-on-write
fanout bookkeeping, one final acyclicity check) instead of deep-rebuilding
per candidate like the plain-copy reference loop
(``tests/oracles.py``). (2) ``score_links`` on the MuxLink
predictors scores a whole population of candidate links per call —
feature extraction, BFS distance maps and type histograms amortised
across the batch — instead of once per link.

Both paths are exact: the bench asserts the delta-locked circuit is
structurally identical to the scratch-locked one and the batched scores
are bitwise equal to the per-link loop, then asserts the speedups
(delta >= 3x; batched bayes >= 5x, mlp >= 2x — the MLP forward stays
per-row because batched BLAS matmuls round differently). Timing
assertions apply at full scale; under ``REPRO_BENCH_GUARD`` (the CI
smoke guard) the faster path must merely never lose to the slow one.

``python benchmarks/bench_delta_relock.py`` emits
``BENCH_delta_relock.json`` (override with ``BENCH_DELTA_RELOCK_OUT``).
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
from oracles import scratch_lock_with_genes  # noqa: E402

from repro.attacks.muxlink.graph import extract_observed
from repro.circuits import load_circuit
from repro.ec.genotype import random_genotype
from repro.locking import DeltaRelocker, lock_with_genes
from repro.registry import PREDICTORS, PRIMITIVES

_CIRCUIT = "c1908_syn"
_GENES = 64
_RELOCK_REPEATS = 20
_SCORE_REPEATS = 5
_TARGET_DELTA_SPEEDUP = 3.0
_TARGET_SCORE_SPEEDUP = {"bayes": 5.0, "mlp": 2.0}


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _time_relock(base, genotype, repeats) -> tuple[float, float]:
    relocker = DeltaRelocker(base)
    t0 = time.perf_counter()
    for _ in range(repeats):
        delta = relocker.lock(genotype)
    delta_s = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    for _ in range(repeats):
        scratch = scratch_lock_with_genes(base, genotype)
    scratch_s = (time.perf_counter() - t0) / repeats

    assert delta.netlist.structurally_equal(scratch.netlist)
    assert delta.key.bits == scratch.key.bits
    assert delta.scheme == scratch.scheme
    return delta_s, scratch_s


def _time_scoring(locked, repeats) -> dict:
    graph, queries = extract_observed(locked.netlist)
    pairs = []
    for q in queries:
        d0, d1 = graph.index[q.d0], graph.index[q.d1]
        for consumer in q.consumers:
            c = graph.index[consumer]
            pairs.extend([(d0, c), (d1, c)])

    out = {}
    for name in ("bayes", "mlp"):
        predictor = PREDICTORS.create(name)
        predictor.fit(graph, np.random.default_rng(5))

        t0 = time.perf_counter()
        for _ in range(repeats):
            batched = predictor.score_links(pairs)
        batched_s = (time.perf_counter() - t0) / repeats

        t0 = time.perf_counter()
        for _ in range(repeats):
            looped = [predictor.score_link(u, v) for u, v in pairs]
        looped_s = (time.perf_counter() - t0) / repeats

        assert np.array_equal(batched, np.array(looped)), (
            f"{name}: batched scores are not bit-identical to the loop"
        )
        out[name] = {
            "n_pairs": len(pairs),
            "batched_s": batched_s,
            "looped_s": looped_s,
            "speedup": looped_s / batched_s if batched_s > 0 else None,
            "target_speedup": _TARGET_SCORE_SPEEDUP[name],
        }
    return out


def run_delta_relock(out_json: str | None = None) -> dict:
    scale = _scale()
    n_genes = scaled(_GENES, minimum=8)
    relock_repeats = scaled(_RELOCK_REPEATS, minimum=2)
    score_repeats = scaled(_SCORE_REPEATS, minimum=1)
    base = load_circuit(_CIRCUIT)
    genotype = random_genotype(
        base, n_genes, np.random.default_rng(11),
        alphabet=tuple(sorted(PRIMITIVES.available())),
    )

    delta_s, scratch_s = _time_relock(base, genotype, relock_repeats)
    locked = lock_with_genes(base, genotype)
    scoring = _time_scoring(locked, score_repeats)

    report = {
        "circuit": _CIRCUIT,
        "n_genes": n_genes,
        "relock_repeats": relock_repeats,
        "score_repeats": score_repeats,
        "delta_relock_s": delta_s,
        "scratch_relock_s": scratch_s,
        "relock_speedup": scratch_s / delta_s if delta_s > 0 else None,
        "target_relock_speedup": _TARGET_DELTA_SPEEDUP,
        "scoring": scoring,
        "asserted": scale >= 1.0,
        "guarded": bool(os.environ.get("REPRO_BENCH_GUARD")),
    }
    if report["asserted"]:
        assert report["relock_speedup"] >= _TARGET_DELTA_SPEEDUP, (
            f"delta re-locking only {report['relock_speedup']:.2f}x vs "
            f"scratch (target {_TARGET_DELTA_SPEEDUP}x): {report}"
        )
        for name, row in scoring.items():
            assert row["speedup"] >= row["target_speedup"], (
                f"{name} batched scoring only {row['speedup']:.2f}x vs "
                f"per-link loop (target {row['target_speedup']}x): {row}"
            )
    if report["guarded"]:
        # CI perf-regression guard (smoke scale): the fast paths must
        # never lose to the paths they replace.
        assert report["relock_speedup"] >= 1.0, report
        for name, row in scoring.items():
            assert row["speedup"] >= 1.0, (name, row)
    if out_json:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_delta_relock_speed(benchmark):
    report = benchmark.pedantic(run_delta_relock, rounds=1, iterations=1)
    print_header(
        "DELTA",
        "Delta re-locking + population-batched predictor scoring",
        "ROADMAP: raw-speed fitness core (re-locking and scoring were "
        "the per-candidate wall-clock)",
    )
    for key, value in report.items():
        print(f"  {key}: {value}")
    assert report["relock_speedup"] is not None


if __name__ == "__main__":
    out = os.environ.get("BENCH_DELTA_RELOCK_OUT", "BENCH_delta_relock.json")
    summary = run_delta_relock(out_json=out)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out}")
