"""Layer timing from outside the program: wrappers around public calls.

The benchmark never edits ``src/``. A traced run instead replaces the
public functions and methods named in :data:`LAYERS` with thin wrappers
that record calls, busy time and self time (busy time minus the time
spent in nested layers), then puts the originals back. Functions are
swapped in every loaded ``repro`` module that imported them by name, so
``from x import f`` call sites are covered too.

Process-pool children are forked from the benchmark process, so they
inherit the wrappers. Each child starts a fresh buffer and writes it,
with its peak resident memory, to a per-PID file in a spool directory
when it exits; :meth:`Recorder.collect_children` merges those files back
into the parent's table. The spool runs in untraced runs too, because
the pool children's peak memory is an end-to-end metric.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import resource
import sys
import threading
import time
from pathlib import Path

#: (layer, module, attribute). ``Class.method`` attributes are patched on
#: the class; plain functions in every repro module that references them.
#: Several targets may feed one layer (e.g. both predictors' ``fit``).
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("circuits.load_circuit", "repro.circuits.registry", "load_circuit"),
    ("ec.genotype.random_genotype", "repro.ec.genotype", "random_genotype"),
    ("ec.genotype.repair_genotype", "repro.ec.genotype", "repair_genotype"),
    ("ec.loop.breed", "repro.ec.loop", "LoopPolicy.breed"),
    ("ec.loop.breed", "repro.ec.loop", "LoopPolicy.breed_async"),
    ("locking.dmux.sample_gene", "repro.locking.dmux", "sample_gene"),
    ("locking.dmux.lockable_wires", "repro.locking.dmux", "lockable_wires"),
    ("netlist.has_path", "repro.netlist.netlist", "Netlist.has_path"),
    ("netlist.check_acyclic", "repro.netlist.netlist", "Netlist.check_acyclic"),
    ("netlist.check_acyclic", "repro.netlist.cow", "CowNetlist.check_acyclic"),
    ("locking.delta.lock", "repro.locking.delta", "DeltaRelocker.lock"),
    ("locking.genome_lock.lock_with_genes", "repro.locking.genome_lock",
     "lock_with_genes"),
    ("attacks.muxlink.attack.run", "repro.attacks.muxlink.attack",
     "MuxLinkAttack.run"),
    ("attacks.muxlink.graph.extract_observed", "repro.attacks.muxlink.graph",
     "extract_observed"),
    ("attacks.muxlink.features.make_training_pairs",
     "repro.attacks.muxlink.features", "make_training_pairs"),
    ("attacks.muxlink.features.link_feature_matrix",
     "repro.attacks.muxlink.features", "link_feature_matrix"),
    ("attacks.muxlink.features.link_feature_vector",
     "repro.attacks.muxlink.features", "link_feature_vector"),
    ("attacks.muxlink.mlp_predictor.fit", "repro.attacks.muxlink.mlp_predictor",
     "MlpLinkPredictor.fit"),
    ("attacks.muxlink.mlp_predictor.score_links",
     "repro.attacks.muxlink.mlp_predictor", "MlpLinkPredictor.score_links"),
    ("ml.network.fit", "repro.ml.network", "fit"),
    ("attacks.muxlink.gnn.fit", "repro.attacks.muxlink.gnn",
     "GnnLinkPredictor.fit"),
    ("attacks.muxlink.gnn.score_links", "repro.attacks.muxlink.gnn",
     "GnnLinkPredictor.score_links"),
    ("attacks.muxlink.subgraph.extract_enclosing_subgraphs",
     "repro.attacks.muxlink.subgraph", "extract_enclosing_subgraphs"),
    ("attacks.muxlink.gnn.normalized_adjacency", "repro.attacks.muxlink.gnn",
     "normalized_adjacency"),
    ("ec.fitness.spec_fitness", "repro.ec.fitness", "SpecFitness.__call__"),
    ("ec.fitness.resilience_accuracy", "repro.ec.fitness",
     "resilience_accuracy"),
    ("ec.fitness.cache_get", "repro.ec.fitness", "FitnessCache.get"),
    ("ec.fitness.cache_flush", "repro.ec.fitness", "FitnessCache.flush"),
    ("ec.evaluator.evaluate", "repro.ec.evaluator", "SerialEvaluator.evaluate"),
    ("ec.evaluator.evaluate", "repro.ec.evaluator",
     "ProcessPoolEvaluator.evaluate"),
    ("ec.evaluator.evaluate", "repro.ec.evaluator", "AsyncEvaluator.submit"),
    ("ec.evaluator.worker_task", "repro.ec.evaluator", "_eval_epoch"),
    ("store.sqlite_store.put_many", "repro.store.sqlite_store",
     "SQLiteStore.put_many"),
    ("store.sqlite_store.get", "repro.store.sqlite_store", "SQLiteStore.get"),
    ("ec.evaluator.result_wait", "concurrent.futures._base", "Future.result"),
)

#: the lookup layer whose non-None results count as cache hits.
CACHE_LOOKUP_LAYER = "ec.fitness.cache_get"
#: where a pool worker's lookups in its own cache copy are filed.
WORKER_LOOKUP_LAYER = "ec.fitness.worker_cache_get"


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` at its current resident size."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:  # not Linux: the peak then covers the whole process
        pass


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (Linux ``VmHWM``)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.children = 0.0


class Recorder:
    """Per-layer call counts, busy seconds and self seconds.

    ``armed`` gates recording; wrappers are only installed for traced
    runs, so untraced runs execute the original functions. Pool children
    forked while ``trace_children`` is set start armed. ``top_main_s``
    sums the layers entered with nothing else on the main thread's stack,
    which is what ``unattributed_s`` is measured against.
    """

    def __init__(self) -> None:
        self.armed = False
        self.trace_children = False
        self.spool_dir: Path | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._child_exit_registered = False
        self.reset()
        # Runs in multiprocessing children after their finalizer registry
        # is cleared, so the exit hook registered there survives.
        multiprocessing.util.register_after_fork(
            self, Recorder._after_fork_child
        )

    def reset(self) -> None:
        with self._lock:
            self.stats: dict[str, list[float]] = {}
            self.hits = 0
            self.top_main_s = 0.0

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame | None:
        if not self.armed:
            return None
        frame = _Frame(name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame | None) -> None:
        if frame is None:
            return
        elapsed = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children += elapsed
        with self._lock:
            entry = self.stats.setdefault(frame.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame.children
            if not stack and threading.current_thread() is threading.main_thread():
                self.top_main_s += elapsed

    def hit(self) -> None:
        with self._lock:
            self.hits += 1

    # -- installing wrappers ----------------------------------------------
    def _wrapper(self, name: str, fn):
        recorder = self
        if name == CACHE_LOOKUP_LAYER:
            @functools.wraps(fn)
            def lookup(*args, **kwargs):
                frame = recorder.enter(name)
                try:
                    value = fn(*args, **kwargs)
                finally:
                    recorder.exit(frame)
                if frame is not None and value is not None:
                    recorder.hit()
                return value
            return lookup

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.exit(frame)
        return wrapper

    def install(self) -> None:
        """Swap every :data:`LAYERS` target for a recording wrapper."""
        if self._patches:
            return
        for name, module_name, attr in LAYERS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "") or ""
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back, in reverse order."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- pool children ----------------------------------------------------
    def _after_fork_child(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()
        self.armed = self.trace_children
        if self.spool_dir is not None and not self._child_exit_registered:
            self._child_exit_registered = True
            spool = self.spool_dir
            multiprocessing.util.Finalize(
                None, lambda: self._dump_child(spool), exitpriority=100
            )

    def _dump_child(self, spool: Path) -> None:
        record = {
            "pid": os.getpid(),
            "peak_rss_kb": peak_rss_kb(),
            "stats": self.stats,
        }
        path = spool / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, path)

    def collect_children(self) -> list[int]:
        """Merge and delete the spooled child buffers; returns their peak RSS."""
        peaks: list[int] = []
        if self.spool_dir is None or not self.spool_dir.is_dir():
            return peaks
        for path in sorted(self.spool_dir.glob("*.json")):
            record = json.loads(path.read_text())
            peaks.append(int(record["peak_rss_kb"]))
            with self._lock:
                for name, (calls, total, self_s) in record["stats"].items():
                    if name == CACHE_LOOKUP_LAYER:
                        # A worker re-checks its pickled cache snapshot;
                        # that is not a lookup the engine requested.
                        name = WORKER_LOOKUP_LAYER
                    entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += self_s
            path.unlink()
        return peaks


def warm_fitness(genes) -> float:
    """No-op fitness used to start pool workers before a timed run."""
    return 0.0


class WarmGene:
    """Minimal gene for :func:`warm_fitness` (only ``key_tuple`` is read)."""

    def __init__(self, index: int) -> None:
        self.index = index

    def key_tuple(self) -> tuple:
        return ("warm", self.index)


def start_workers(evaluator, workers: int) -> None:
    """Fork the evaluator's pool by evaluating one no-op task per worker."""
    population = [[WarmGene(i)] for i in range(workers)]
    values, _stats = evaluator.evaluate(population, warm_fitness)
    if values != [0.0] * workers:
        raise RuntimeError(f"pool warm-up returned {values!r}")

