"""The benchmark's workloads: fixed GA evolve runs, one spec per seed.

Each workload pins the loop mode (``async_mode``) explicitly, so a
change of the engine's default loop mode cannot silently redefine it.
A benchmark run evolves ``specs_per_run`` specs whose GA seeds are
derived from the command-line seed, each once, and repeats them while
time is left; the program only ever sees the generated spec.

The GA sizes are smaller than the engine's default (12 x 15) so that a
benchmark run averages the champion over several specs in about 30 s.
README.md gives the layer shares at both sizes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

#: Seed held out from tuning: a later gain claim must also hold with
#: ``--seed 9001`` (see README.md).
HELD_OUT_SEED = 9001

KEY_LENGTH = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    circuit: str
    predictor: str
    workers: int
    async_mode: bool
    population: int
    generations: int
    elitism: int
    #: distinct specs (GA seeds) evolved per benchmark run.
    specs_per_run: int
    #: give each evolve run a fresh SQLite cache (write-through store).
    sqlite_cache: bool = False

    def at_default_size(self) -> "Workload":
        """This workload with one spec at the GA engine's default size."""
        from repro.ec.ga import GaConfig

        default = GaConfig()
        return dataclasses.replace(
            self, population=default.population_size,
            generations=default.generations, elitism=default.elitism,
            specs_per_run=1,
        )

    @property
    def uses_pool(self) -> bool:
        """Whether runs go through an ``AsyncEvaluator`` process pool."""
        return self.workers > 1 or self.async_mode

    def spec_seeds(self, seed: int, tiny: bool = False) -> list[int]:
        """The GA seeds a benchmark run with ``--seed seed`` evolves."""
        count = 1 if tiny else self.specs_per_run
        return [
            int.from_bytes(
                hashlib.sha256(f"{self.name}:{seed}:{i}".encode()).digest()[:4],
                "big",
            )
            for i in range(count)
        ]

    def spec(self, ga_seed: int, cache_path: str | None = None,
             tiny: bool = False):
        """The :class:`~repro.api.ExperimentSpec` of one evolve run."""
        from repro.api import ExperimentSpec

        population, generations = (3, 1) if tiny else (
            self.population, self.generations
        )
        return ExperimentSpec(
            circuit=self.circuit,
            key_length=KEY_LENGTH,
            attack="muxlink",
            attack_params={"predictor": self.predictor},
            engine="ga",
            engine_params={
                "population_size": population,
                "generations": generations,
                "elitism": 1 if tiny else self.elitism,
            },
            seed=ga_seed,
            async_mode=self.async_mode,
            workers=self.workers,
            cache_path=cache_path,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="evolve_mlp_c7552",
            why=(
                "sync GA with the MuxLink MLP on the largest netlist, one "
                "worker: breeding and relocking scale with netlist size"
            ),
            circuit="c7552_syn",
            predictor="mlp",
            workers=1,
            async_mode=False,
            population=4,
            generations=5,
            elitism=1,
            specs_per_run=3,
        ),
        Workload(
            name="evolve_gnn_c1355",
            why=(
                "sync GA with the MuxLink GNN, one worker: GNN training "
                "dominates, so it bypasses every non-GNN optimisation"
            ),
            circuit="c1355_syn",
            predictor="gnn",
            workers=1,
            async_mode=False,
            population=4,
            generations=2,
            elitism=1,
            specs_per_run=3,
        ),
        Workload(
            name="steady_mlp_c432_w2",
            why=(
                "steady-state GA over a two-process pool with a fresh SQLite "
                "cache: exercises the evaluator, the store and the async loop"
            ),
            circuit="c432_syn",
            predictor="mlp",
            workers=2,
            async_mode=True,
            population=4,
            generations=3,
            elitism=2,
            specs_per_run=12,
            sqlite_cache=True,
        ),
    )
}
