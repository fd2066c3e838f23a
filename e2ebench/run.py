#!/usr/bin/env python3
"""End-to-end evolve benchmark: fitness evaluations per second of real GA runs.

Run from the repository root::

    python3 e2ebench/run.py --workload evolve_mlp_c7552 --seed 1 \\
        --seconds 30 --trace 0

Every evolve run goes through the public ``repro.api.run_experiment``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` pairs each
untraced run with a traced run of the same spec and reports the
per-layer table (see ``layers.py``). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable table and the host
stamp. Workloads, metrics and the layer map are documented in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "e2ebench"

#: thread pins for this process, its pool children and set-up probes; the
#: default OpenBLAS pool would oversubscribe a small host once two
#: workers each start one thread per core.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: fresh interpreters timed for the import + load part of ``setup_s``.
SETUP_PROBES = 3

_SETUP_PROBE = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro.api
from repro.circuits import load_circuit
load_circuit(sys.argv[2])
print(time.perf_counter() - started)
"""

#: end-to-end metrics, reported by untraced runs: (name, unit).
END_TO_END = (
    ("evals_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("champion_accuracy", "ratio"),
)

#: layers whose busy seconds are reported, summed over the traced runs.
#: A layer the workload does not run reads 0 s.
TIMED_LAYERS = (
    "ec.genotype.random_genotype",
    "ec.genotype.repair_genotype",
    "ec.loop.breed",
    "locking.delta.lock",
    "attacks.muxlink.graph.extract_observed",
    "attacks.muxlink.features.make_training_pairs",
    "attacks.muxlink.features.link_feature_matrix",
    "attacks.muxlink.mlp_predictor.fit",
    "attacks.muxlink.mlp_predictor.score_links",
    "ml.network.fit",
    "attacks.muxlink.gnn.fit",
    "attacks.muxlink.gnn.score_links",
    "attacks.muxlink.subgraph.extract_enclosing_subgraphs",
    "attacks.muxlink.attack.run",
    "ec.fitness.resilience_accuracy",
    "ec.fitness.cache_flush",
    "ec.evaluator.evaluate",
    "ec.evaluator.result_wait",
    "store.sqlite_store.put_many",
)
#: layers whose call counts are reported.
COUNTED_LAYERS = (
    "ec.genotype.random_genotype",
    "ec.genotype.repair_genotype",
    "locking.dmux.sample_gene",
    "locking.dmux.lockable_wires",
    "netlist.has_path",
    "netlist.check_acyclic",
    "locking.delta.lock",
    "attacks.muxlink.features.link_feature_matrix",
    "attacks.muxlink.features.link_feature_vector",
    "attacks.muxlink.gnn.normalized_adjacency",
    "attacks.muxlink.attack.run",
    "store.sqlite_store.put_many",
    "store.sqlite_store.get",
)


def per_layer_units() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [(f"{name}_s", "s", "lower") for name in TIMED_LAYERS]
    out += [("attacks.muxlink.attack.run_self_s", "s", "lower")]
    out += [(f"{name}_calls", "count", "lower") for name in COUNTED_LAYERS]
    out += [
        ("ec.loop.evals_requested", "count", "lower"),
        ("ec.fitness.fresh_evals", "count", "lower"),
        ("ec.fitness.cache_lookups", "count", "lower"),
        ("ec.fitness.cache_hit_ratio", "ratio", "higher"),
        ("ec.evaluator.worker_busy_ratio", "ratio", "higher"),
        ("unattributed_s", "s", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
    ]
    return out


# ---------------------------------------------------------------------------
# host stamp
# ---------------------------------------------------------------------------
def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_stamp() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy: no dict mode; the stamp stays usable
        pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# one evolve run
# ---------------------------------------------------------------------------
@dataclass
class RunSample:
    ga_seed: int
    traced: bool
    wall_s: float = 0.0
    evals: int = 0
    fresh: int = 0
    pool_setup_s: float | None = None
    parent_peak_kb: int = 0
    child_peak_kb: int = 0
    best_fitness: float | None = None
    record: dict | None = None
    error: str | None = None
    stats: dict = field(default_factory=dict)
    hits: int = 0
    top_main_s: float = 0.0


class Bench:
    """Runs one workload; holds the recorder and the per-run scratch dir."""

    def __init__(self, workload, work_dir: Path, tiny: bool) -> None:
        from layers import Recorder

        self.workload = workload
        self.work_dir = work_dir
        self.tiny = tiny
        self.recorder = Recorder()
        self._counter = 0
        self._first: dict[int, dict] = {}

    def evolve(self, ga_seed: int, traced: bool) -> RunSample:
        """One timed ``run_experiment`` call, then its output checks."""
        from layers import peak_rss_kb, reset_peak_rss, start_workers
        from repro.api import run_experiment
        from repro.ec.evaluator import AsyncEvaluator

        self._counter += 1
        run_dir = self.work_dir / f"run-{self._counter}"
        spool = run_dir / "spool"
        spool.mkdir(parents=True)
        cache_path = (
            str(run_dir / "cache.sqlite") if self.workload.sqlite_cache else None
        )
        spec = self.workload.spec(ga_seed, cache_path=cache_path, tiny=self.tiny)
        sample = RunSample(ga_seed=ga_seed, traced=traced)
        recorder = self.recorder
        recorder.spool_dir = spool
        recorder.reset()
        evaluator = None
        try:
            if traced:
                recorder.install()
                recorder.trace_children = True
            if self.workload.uses_pool:
                started = time.perf_counter()
                evaluator = AsyncEvaluator(self.workload.workers)
                start_workers(evaluator, self.workload.workers)
                sample.pool_setup_s = time.perf_counter() - started
            recorder.armed = traced
            reset_peak_rss()
            started = time.perf_counter()
            result = run_experiment(spec, evaluator=evaluator)
            sample.wall_s = time.perf_counter() - started
            sample.parent_peak_kb = peak_rss_kb()
        except Exception:
            sample.error = traceback.format_exc()
            return sample
        finally:
            recorder.armed = False
            recorder.trace_children = False
            recorder.uninstall()
            if evaluator is not None:
                evaluator.close()
            peaks = recorder.collect_children()
            recorder.spool_dir = None
        if traced and evaluator is not None:
            # start_workers ran one no-op task per worker in the armed
            # children; they are set-up, not run work.
            task = recorder.stats.get("ec.evaluator.worker_task")
            if task is not None:
                task[0] -= self.workload.workers
        sample.child_peak_kb = max(peaks, default=0)
        sample.stats = {k: list(v) for k, v in recorder.stats.items()}
        sample.hits = recorder.hits
        sample.top_main_s = recorder.top_main_s
        engine = result.record["engine"]
        sample.evals = int(engine["evaluations"])
        sample.fresh = int(result.fresh_evaluations)
        sample.best_fitness = float(engine["best_fitness"])
        sample.record = result.deterministic_record()
        try:
            self.check(spec, result, sample)
        except Exception:
            sample.error = traceback.format_exc()
        shutil.rmtree(run_dir, ignore_errors=True)
        return sample

    def check(self, spec, result, sample: RunSample) -> None:
        """Output checks, outside the timed region; raise on failure."""
        first = self._first.get(sample.ga_seed)
        if first is not None:
            if sample.record != first:
                raise AssertionError(
                    f"GA seed {sample.ga_seed}: deterministic record differs "
                    "from the earlier run of the same spec"
                )
            return
        error = run_forked(check_champion, spec, result, sample)
        if error is not None:
            raise AssertionError(error)
        self._check_against_earlier_invocations(spec, sample.record)
        self._first[sample.ga_seed] = sample.record

    def _check_against_earlier_invocations(self, spec, record: dict) -> None:
        """Compare with the record an earlier benchmark run left behind."""
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        store = WORK_ROOT / "records"
        store.mkdir(parents=True, exist_ok=True)
        path = store / f"{spec.fingerprint()}.sha256"
        if path.is_file():
            earlier = path.read_text().strip()
            if earlier != digest:
                raise AssertionError(
                    f"spec {spec.fingerprint()}: deterministic record differs "
                    "from an earlier benchmark run with the same seed"
                )
            return
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digest + "\n")
        os.replace(tmp, path)


def check_champion(spec, result, sample: RunSample) -> None:
    """The champion is equivalent under its key and re-scores the same."""
    from repro.circuits import load_circuit
    from repro.ec.fitness import DEFAULT_ATTACK_SEED, SpecFitness
    from repro.sim.equivalence import check_equivalence

    locked = result.locked
    original = load_circuit(spec.circuit)
    equivalence = check_equivalence(
        original, locked.netlist, key_right=dict(locked.key), seed_or_rng=0
    )
    if not equivalence.equal:
        raise AssertionError(
            f"GA seed {sample.ga_seed}: champion is not equivalent to "
            f"{spec.circuit} under its key ({equivalence.method}, output "
            f"{equivalence.mismatched_output})"
        )
    fitness = SpecFitness(
        original,
        attack=spec.attack,
        attack_params=spec.attack_params,
        attack_seed=DEFAULT_ATTACK_SEED,
    )
    rescored = fitness(result.engine_outcome.best_genotype)
    if rescored != sample.best_fitness:
        raise AssertionError(
            f"GA seed {sample.ga_seed}: fresh re-score {rescored!r} != "
            f"champion accuracy {sample.best_fitness!r}"
        )


def run_forked(fn, *args) -> str | None:
    """Run ``fn(*args)`` in a forked child; its traceback, or None if it passed.

    The re-score trains a MuxLink predictor of its own. In a child, that
    memory stays out of the benchmark process, whose peak resident size
    is measured and whose later pool children would inherit it.
    """
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_forked, args=(writer, fn, args))
    child.start()
    writer.close()
    try:
        return reader.recv()
    except EOFError:
        return "check process ended without a verdict"
    finally:
        reader.close()
        child.join()


def _forked(writer, fn, args) -> None:
    try:
        fn(*args)
        verdict = None
    except BaseException:
        verdict = traceback.format_exc()
    writer.send(verdict)
    writer.close()


# ---------------------------------------------------------------------------
# set-up timing
# ---------------------------------------------------------------------------
def time_import_and_load(circuit: str, probes: int) -> list[float]:
    """Import + ``load_circuit`` wall time in fresh interpreters."""
    env = dict(os.environ, **THREAD_ENV)
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), circuit],
            check=True, capture_output=True, text=True, env=env, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end_metrics(samples, setup_probes) -> dict:
    """The end-to-end metrics of the untraced evolve runs."""
    ok = [s for s in samples if s.error is None]
    pool = [s.pool_setup_s for s in ok if s.pool_setup_s is not None]
    setup = statistics.median(setup_probes)
    if pool:
        setup += statistics.median(pool)
    champions = {s.ga_seed: s.best_fitness for s in ok}
    peak_kb = max((s.parent_peak_kb + s.child_peak_kb for s in ok), default=0)
    nan = float("nan")
    return {
        "evals_per_s": (
            sum(s.evals for s in ok) / sum(s.wall_s for s in ok) if ok else nan
        ),
        "setup_s": setup,
        "peak_rss_mb": peak_kb / 1024.0 if ok else nan,
        "champion_accuracy": (
            statistics.fmean(champions.values()) if champions else nan
        ),
    }


def per_layer_metrics(workload, traced, untraced):
    """Per-layer metrics, the summed layer table and the traced wall time."""
    stats: dict[str, list[float]] = {}
    for sample in traced:
        for name, (calls, total, self_s) in sample.stats.items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s

    def layer(name: str) -> list[float]:
        return stats.get(name, [0, 0.0, 0.0])

    wall = sum(s.wall_s for s in traced)
    out: dict[str, float] = {}
    for name in TIMED_LAYERS:
        out[f"{name}_s"] = layer(name)[1]
    out["attacks.muxlink.attack.run_self_s"] = layer("attacks.muxlink.attack.run")[2]
    for name in COUNTED_LAYERS:
        out[f"{name}_calls"] = int(layer(name)[0])
    lookups = int(layer("ec.fitness.cache_get")[0])
    hits = sum(s.hits for s in traced)
    out["ec.loop.evals_requested"] = sum(s.evals for s in traced)
    out["ec.fitness.fresh_evals"] = sum(s.fresh for s in traced)
    out["ec.fitness.cache_lookups"] = lookups
    out["ec.fitness.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["ec.evaluator.worker_busy_ratio"] = (
        layer("ec.evaluator.worker_task")[1] / (workload.workers * wall)
        if workload.uses_pool else 0.0
    )
    out["unattributed_s"] = wall - sum(s.top_main_s for s in traced)
    out["trace_overhead_ratio"] = wall / sum(s.wall_s for s in untraced)
    return out, stats, wall


def print_layer_table(stats: dict, wall: float) -> None:
    print(f"per-layer table (traced wall {wall:.3f} s; busy/self summed over "
          "all processes, pool children included)")
    print(f"  {'layer':<56} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'share':>7}")
    for name, (calls, total, self_s) in sorted(
        stats.items(), key=lambda kv: -kv[1][1]
    ):
        print(f"  {name:<56} {int(calls):>9} {total:>10.4f} {self_s:>10.4f} "
              f"{total / wall:>7.3f}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def run(workload, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        return _run(workload, seed, seconds, trace, tiny, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, tiny, work_dir) -> dict:
    print(f"e2ebench workload={workload.name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}{' tiny' if tiny else ''}")
    print("host: " + json.dumps(host_stamp(), sort_keys=True))
    setup_probes = time_import_and_load(
        workload.circuit, 1 if tiny else SETUP_PROBES
    )
    import repro.api  # noqa: F401 - the benchmark process's own import

    bench = Bench(workload, work_dir, tiny)
    ga_seeds = workload.spec_seeds(seed, tiny=tiny)
    samples: list[RunSample] = []
    if not trace:
        # Every spec runs once; repeats follow while one more evolve run
        # of average length still ends within ``seconds``.
        started = time.perf_counter()
        index = 0
        while True:
            samples.append(bench.evolve(ga_seeds[index % len(ga_seeds)], False))
            index += 1
            elapsed = time.perf_counter() - started
            if index >= len(ga_seeds) and elapsed * (index + 1) / index > seconds:
                break
    else:
        # Each spec runs untraced and traced; the order alternates so
        # neither side always gets the warmer process.
        for index, ga_seed in enumerate(ga_seeds):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                samples.append(bench.evolve(ga_seed, traced))

    for sample in samples:
        rate = sample.evals / sample.wall_s if sample.wall_s else 0.0
        print(f"  run GA seed {sample.ga_seed:>10} traced={int(sample.traced)} "
              f"wall {sample.wall_s:8.3f} s evals {sample.evals:>3} fresh "
              f"{sample.fresh:>3} ({rate:.4f}/s) best {sample.best_fitness}")
        if sample.error is not None:
            print(f"run failed (GA seed {sample.ga_seed}, traced="
                  f"{sample.traced}):\n{sample.error}", file=sys.stderr)
    failed = sum(1 for s in samples if s.error is not None)
    attempted = len(samples)
    untraced = [s for s in samples if not s.traced]
    e2e = end_to_end_metrics(untraced, setup_probes)
    units = dict(END_TO_END)
    print(f"runs: {attempted} attempted, {failed} failed over "
          f"{len(ga_seeds)} spec(s); evals/run "
          f"{sorted({s.evals for s in samples if s.error is None})}")
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>14.6f} {units[name]}")
    print(f"  {'failed_run_ratio':<24} {failed / attempted:>14.6f} ratio")
    if not trace:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END
        }
    else:
        traced = [s for s in samples if s.traced and s.error is None]
        paired = [s for s in untraced if s.error is None]
        if traced and paired:
            values, stats, wall = per_layer_metrics(workload, traced, paired)
            print_layer_table(stats, wall)
        else:
            values = {name: float("nan") for name, _u, _b in per_layer_units()}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in per_layer_units()
        }
        for name, _unit, _better in per_layer_units():
            print(f"  {name:<60} {values[name]:>14.6f}")
    unmeasured = [n for n, m in metrics.items() if m["value"] != m["value"]]
    for name in unmeasured:  # NaN: no run produced it; keep the JSON valid
        metrics[name]["value"] = None
    correct = failed == 0 and not unmeasured
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke scale: one spec, population 3, one generation",
    )
    parser.add_argument(
        "--reference", action="store_true",
        help="one spec at the GA engine's default size instead of the "
        "workload's (to compare the layer shares of the two sizes)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC / 'repro'}) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.reference:
        workload = workload.at_default_size()
    os.environ.update(THREAD_ENV)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    # Temp files of the program (pool blobs) stay inside the checkout.
    tmp = WORK_ROOT / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))

    result = run(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
