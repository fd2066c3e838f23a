"""Population evaluation engine: serial/parallel equivalence and caching.

The evaluator refactor moved the GA/NSGA-II hot path from a per-genome
loop into a batched pipeline (dedupe -> cache -> fan-out -> merge). These
tests pin the contract that made that safe: the process-pool backend is
*observationally identical* to the serial one — same results, same cache
accounting, same evaluation counts — and the persistent cache turns
repeated runs into pure lookups.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.circuits import load_circuit
from repro.ec import (
    AutoLock,
    AutoLockConfig,
    BatchStats,
    FitnessCache,
    GaConfig,
    GeneticAlgorithm,
    Nsga2,
    Nsga2Config,
    ProcessPoolEvaluator,
    SerialEvaluator,
    SpecFitness,
    cache_namespace,
)
from repro.ec.fitness import MultiObjectiveFitness
from repro.ec.genotype import genotype_key, random_genotype


@pytest.fixture(scope="module")
def circuit():
    return load_circuit("rand_150_5")


def _strip_timing(stats):
    return dataclasses.replace(stats, elapsed_s=0.0, eval_wall_s=0.0)


class CountingFitness:
    """Cache-fronted, picklable fitness that counts real evaluations."""

    def __init__(self, cache: FitnessCache | None = None) -> None:
        self.cache = cache if cache is not None else FitnessCache()
        self.evaluations = 0

    def __call__(self, genes) -> float:
        key = genotype_key(genes)
        cached = self.cache.get(key)
        if cached is not None:
            return float(cached)
        self.evaluations += 1
        value = sum(g.k for g in genes) / len(genes)
        self.cache.put(key, value)
        return value


class PidFitness:
    """Picklable, cache-less fitness reporting which process ran it."""

    def __init__(self, offset: int) -> None:
        self.offset = offset

    def __call__(self, genes) -> float:
        import os

        return float(os.getpid() + self.offset)


# ----------------------------------------------------- GA equivalence
def _ga_run(circuit, evaluator, cache):
    fitness = SpecFitness(
        circuit, attack="muxlink", attack_params={"predictor": "bayes"},
        attack_seed=5, cache=cache,
    )
    config = GaConfig(key_length=6, population_size=6, generations=4, seed=9)
    result = GeneticAlgorithm(config).run(circuit, fitness, evaluator=evaluator)
    return result, fitness


def test_process_pool_ga_matches_serial_exactly(circuit):
    serial_cache, pool_cache = FitnessCache(), FitnessCache()
    serial, serial_fit = _ga_run(circuit, SerialEvaluator(), serial_cache)
    with ProcessPoolEvaluator(workers=2) as evaluator:
        pooled, pool_fit = _ga_run(circuit, evaluator, pool_cache)

    # Byte-identical search outcome.
    assert pooled.best_fitness == serial.best_fitness
    assert pooled.best_genotype == serial.best_genotype
    assert pooled.hall_of_fame == serial.hall_of_fame
    assert pooled.evaluations == serial.evaluations
    assert pooled.stopped_early == serial.stopped_early
    # Identical fitness history, modulo wall-clock fields.
    assert [_strip_timing(s) for s in pooled.history] == [
        _strip_timing(s) for s in serial.history
    ]
    # Identical accounting: fresh evaluations and cache counters.
    assert pool_fit.evaluations == serial_fit.evaluations
    assert (pool_cache.hits, pool_cache.misses) == (
        serial_cache.hits,
        serial_cache.misses,
    )
    assert pool_cache.store == serial_cache.store


def test_process_pool_nsga2_matches_serial_exactly(circuit):
    def nsga_run(evaluator):
        fitness = MultiObjectiveFitness(
            circuit,
            predictor="bayes",
            objectives=("muxlink", "depth"),
            attack_seed=7,
        )
        config = Nsga2Config(
            key_length=5, population_size=6, generations=3, seed=13
        )
        return Nsga2(config).run(circuit, fitness, evaluator=evaluator)

    serial = nsga_run(SerialEvaluator())
    with ProcessPoolEvaluator(workers=2) as evaluator:
        pooled = nsga_run(evaluator)

    assert pooled.front_genotypes == serial.front_genotypes
    assert pooled.front_objectives == serial.front_objectives
    assert pooled.evaluations == serial.evaluations
    assert pooled.history == serial.history


# ------------------------------------------------- dedupe + accounting
def test_duplicate_genotypes_dispatched_once(circuit):
    genes = random_genotype(circuit, 4, seed_or_rng=1)
    other = random_genotype(circuit, 4, seed_or_rng=2)
    population = [genes, other, list(genes), list(genes), other]

    fitness = CountingFitness()
    with ProcessPoolEvaluator(workers=2) as evaluator:
        values, stats = evaluator.evaluate(population, fitness)

    assert stats.size == 5 and stats.unique == 2
    assert stats.dispatched == 2, "each distinct genotype must be attacked once"
    assert fitness.evaluations == 2
    assert values[0] == values[2] == values[3]
    assert values[1] == values[4]
    # Serial hit/miss semantics: 2 first-occurrence misses, 3 replayed hits.
    assert fitness.cache.misses == 2 and fitness.cache.hits == 3


def test_cache_hits_accumulate_across_generations(circuit):
    genes = random_genotype(circuit, 4, seed_or_rng=3)
    fitness = CountingFitness()
    with ProcessPoolEvaluator(workers=2) as evaluator:
        _, first = evaluator.evaluate([genes, genes], fitness)
        _, second = evaluator.evaluate([genes], fitness)
        assert first.dispatched == 1 and first.cache_hits == 1
        assert second.dispatched == 0 and second.cache_hits == 1
        assert evaluator.total.size == 3
        assert evaluator.total.dispatched == 1
        assert evaluator.total.cache_hits == 2
    assert fitness.evaluations == 1


def test_pool_reused_across_generations_and_fitness_changes(circuit):
    """The pool must survive fitness-cache warm-up *and* fitness swaps.

    The worker snapshot is keyed on fitness object identity, not its
    (mutating) pickled state, and a genuinely new fitness re-sends the
    blob to the live workers instead of respawning the executor — a
    sweep runs many specs through one shared pool, so restarting per
    spec would silently forfeit the fan-out win.
    """
    fitness = CountingFitness()
    a = random_genotype(circuit, 4, seed_or_rng=5)
    b = random_genotype(circuit, 4, seed_or_rng=6)
    with ProcessPoolEvaluator(workers=2) as evaluator:
        evaluator.evaluate([a], fitness)
        pool_after_first = evaluator._pool
        epoch_after_first = evaluator._epoch
        assert pool_after_first is not None
        evaluator.evaluate([b], fitness)  # cache mutated since the snapshot
        assert evaluator._pool is pool_after_first, (
            "same fitness object must not trigger a pool rebuild"
        )
        assert evaluator._epoch == epoch_after_first, (
            "same fitness object must not re-ship its blob"
        )
        evaluator.evaluate([a], CountingFitness())  # genuinely new fitness
        assert evaluator._pool is pool_after_first, (
            "a new fitness must reuse the live workers (new epoch blob), "
            "not restart the executor"
        )
        assert evaluator._epoch == epoch_after_first + 1


def test_pool_worker_processes_survive_fitness_change(circuit):
    """The same worker *processes* answer batches before and after the
    dispatcher switches to a different fitness object.

    Which of the two pool processes serves a given task is a race, so
    the assertion bounds the *union* of observed pids: a respawned
    executor would surface fresh pids and push the union past the pool
    size, while the keep-alive pool can never exceed it.
    """
    import os

    a = random_genotype(circuit, 4, seed_or_rng=5)
    b = random_genotype(circuit, 4, seed_or_rng=6)
    with ProcessPoolEvaluator(workers=2) as evaluator:
        first, _ = evaluator.evaluate([a, b], PidFitness(0))
        second, _ = evaluator.evaluate([a, b], PidFitness(1_000_000))
        parent = os.getpid()
    pids_first = {int(v) for v in first}
    pids_second = {int(v) - 1_000_000 for v in second}
    assert parent not in (pids_first | pids_second), (
        "work must run in worker processes"
    )
    assert len(pids_first | pids_second) <= 2, (
        "fitness change must not respawn the worker processes"
    )


def test_unpicklable_cached_fitness_accounting_matches_serial(circuit):
    """The in-process fallback must not double-count evaluations/misses."""
    genes_a = random_genotype(circuit, 4, seed_or_rng=7)
    genes_b = random_genotype(circuit, 4, seed_or_rng=8)
    population = [genes_a, genes_b, list(genes_a)]

    serial_fit = CountingFitness()
    SerialEvaluator().evaluate(population, serial_fit)

    inner = CountingFitness()
    unpicklable = lambda genes: inner(genes)  # noqa: E731
    unpicklable.cache = inner.cache
    with ProcessPoolEvaluator(workers=2) as evaluator:
        with pytest.warns(RuntimeWarning, match="not picklable"):
            _, stats = evaluator.evaluate(population, unpicklable)

    assert inner.evaluations == serial_fit.evaluations == 2
    assert inner.cache.misses == serial_fit.cache.misses == 2
    assert inner.cache.hits == serial_fit.cache.hits == 1
    assert stats.dispatched == 2


def test_unpicklable_fitness_falls_back_in_process(circuit):
    genes = random_genotype(circuit, 4, seed_or_rng=4)
    calls = []
    fitness = lambda g: calls.append(1) or 0.25  # noqa: E731 - unpicklable
    with ProcessPoolEvaluator(workers=2) as evaluator:
        with pytest.warns(RuntimeWarning, match="not picklable"):
            values, stats = evaluator.evaluate([genes], fitness)
    assert values == [0.25] and len(calls) == 1
    assert stats.dispatched == 1


def test_process_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="workers"):
        ProcessPoolEvaluator(workers=0)


def test_batch_stats_merge():
    a = BatchStats(size=4, unique=3, cache_hits=1, dispatched=2, wall_s=0.5)
    b = BatchStats(size=2, unique=2, cache_hits=2, dispatched=0, wall_s=0.25)
    merged = a.merged(b)
    assert merged == BatchStats(
        size=6, unique=5, cache_hits=3, dispatched=2, wall_s=0.75
    )


# -------------------------------------------------- on-disk persistence
def test_fitness_cache_disk_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    key = (("a", "b", "c", "d", 1),)
    cache = FitnessCache(path=path, namespace="ns1")
    cache.put(key, 0.5)
    cache.put((("e", "f", "g", "h", 0),), (0.1, 0.2))  # vector fitness

    reloaded = FitnessCache(path=path, namespace="ns1")
    assert reloaded.get(key) == 0.5
    assert reloaded.get((("e", "f", "g", "h", 0),)) == (0.1, 0.2)
    assert reloaded.hits == 2 and reloaded.misses == 0

    # Namespaces are isolated but share the file.
    other = FitnessCache(path=path, namespace="ns2")
    assert other.get(key) is None
    other.put(key, 0.9)
    assert FitnessCache(path=path, namespace="ns1").get(key) == 0.5
    assert FitnessCache(path=path, namespace="ns2").get(key) == 0.9

    # Wiping one namespace leaves the other intact.
    FitnessCache(path=path, namespace="ns1").wipe_disk()
    assert FitnessCache(path=path, namespace="ns1").get(key) is None
    assert FitnessCache(path=path, namespace="ns2").get(key) == 0.9


def test_fitness_cache_tolerates_corrupt_file(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    cache = FitnessCache(path=path, namespace="ns")
    assert cache.get((("a", "b", "c", "d", 0),)) is None
    cache.put((("a", "b", "c", "d", 0),), 0.5)  # overwrites the corrupt file
    assert json.loads(path.read_text())["ns"]


def test_fitness_cache_pickle_drops_path_and_lock(tmp_path):
    cache = FitnessCache(path=tmp_path / "cache.json", namespace="ns")
    cache.put((("a", "b", "c", "d", 0),), 0.5)
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.path is None, "worker-side clones must not write the file"
    assert clone.store == cache.store
    clone.put((("x", "y", "z", "w", 1),), 0.1)  # must not touch disk
    assert "x" not in (tmp_path / "cache.json").read_text()


def test_cache_namespace_is_order_independent():
    a = cache_namespace("c17", predictor="mlp", ensemble=2)
    b = cache_namespace("c17", ensemble=2, predictor="mlp")
    assert a == b and a.startswith("c17|")
    assert cache_namespace("c17", predictor="bayes") != a


# ------------------------------------------- warm-cache AutoLock reruns
def test_autolock_warm_disk_cache_skips_all_attacks(circuit, tmp_path):
    config = AutoLockConfig(
        key_length=6,
        population_size=4,
        generations=2,
        fitness_predictor="bayes",
        report_predictor="bayes",
        report_ensemble=1,
        seed=3,
        cache_path=tmp_path / "fitness_cache.json",
    )
    cold = AutoLock(config).run(circuit)
    assert cold.fitness_evaluations > 0 and cold.report_evaluations > 0

    warm = AutoLock(config).run(circuit)
    assert warm.fitness_evaluations == 0, "GA loop must be 100% cache hits"
    assert warm.report_evaluations == 0, "report stage must be 100% cache hits"
    assert warm.cache_hits == cold.cache_hits + cold.fitness_evaluations
    # Identical verdicts from pure lookups.
    assert warm.evolved_accuracy == cold.evolved_accuracy
    assert warm.baseline_accuracy == cold.baseline_accuracy
    assert warm.ga.best_fitness == cold.ga.best_fitness
    assert warm.ga.hall_of_fame == cold.ga.hall_of_fame


def test_autolock_workers_match_serial(circuit, tmp_path):
    """Pool-sync mode stays byte-identical to serial at any worker count.

    ``workers >= 2`` defaults to the steady-state loop these days, so the
    sync-generational contract is pinned with ``async_mode=False`` (the
    async determinism contract lives in ``test_ec_loop.py``).
    """
    base = dict(
        key_length=6,
        population_size=4,
        generations=2,
        fitness_predictor="bayes",
        report_predictor="bayes",
        report_ensemble=1,
        seed=17,
    )
    serial = AutoLock(AutoLockConfig(**base)).run(circuit)
    pooled = AutoLock(
        AutoLockConfig(**base, workers=2, async_mode=False)
    ).run(circuit)
    assert pooled.evolved_accuracy == serial.evolved_accuracy
    assert pooled.baseline_accuracy == serial.baseline_accuracy
    assert pooled.ga.best_genotype == serial.ga.best_genotype
    assert pooled.ga.hall_of_fame == serial.ga.hall_of_fame
    assert pooled.fitness_evaluations == serial.fitness_evaluations
