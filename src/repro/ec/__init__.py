"""Evolutionary computation: the AutoLock core.

The paper's contribution is the GA–MuxLink integration: genotypes are
lists of MUX-pair locking locations (``{f_i, f_j, g_i, g_j, k}``), fitness
is the MuxLink attack accuracy on the decoded netlist (lower = fitter),
and standard evolutionary operators search the locking-design space.

* :mod:`repro.ec.genotype` — genotype sampling, validation and repair
* :mod:`repro.ec.operators` — selection / crossover / mutation variants
* :mod:`repro.ec.fitness` — attack-backed fitness functions (with cache)
* :mod:`repro.ec.evaluator` — batched + futures-based population evaluation
* :mod:`repro.ec.loop` — the unified sync/steady-state search loop core
* :mod:`repro.ec.ga` — single-objective GA (a policy bundle over the loop)
* :mod:`repro.ec.nsga2` — NSGA-II multi-objective engine
* :mod:`repro.ec.alternatives` — single-trajectory baseline searches
* :mod:`repro.ec.autolock` — the end-to-end pipeline of Fig. 1
"""

from repro.ec.genotype import (
    genotype_key,
    genotype_kinds,
    random_genotype,
    repair_genotype,
)
from repro.ec.operators import (
    CROSSOVERS,
    MUTATIONS,
    SELECTIONS,
    MutationConfig,
    crossover_one_point,
    crossover_two_point,
    crossover_uniform,
    mutate,
    select_rank,
    select_roulette,
    select_tournament,
)
from repro.ec.evaluator import (
    AsyncEvaluator,
    BatchStats,
    Evaluator,
    ProcessPoolEvaluator,
    SerialEvaluator,
    supports_async,
)
from repro.ec.loop import (
    BacklogTuner,
    LoopPolicy,
    LoopState,
    SearchLoop,
    SelectionPolicy,
    SurvivalPolicy,
    VariationPolicy,
    resolve_async,
)
from repro.ec.fitness import (
    DEFAULT_ATTACK_SEED,
    FitnessCache,
    MultiObjectiveFitness,
    SpecFitness,
    cache_namespace,
)
from repro.ec.ga import GaConfig, GaResult, GenerationStats, GeneticAlgorithm
from repro.ec.nsga2 import Nsga2, Nsga2Config, Nsga2Result
from repro.ec.autolock import AutoLock, AutoLockConfig, AutoLockResult
from repro.ec.alternatives import (
    HillClimber,
    RandomSearch,
    SearchResult,
    SimulatedAnnealing,
)

__all__ = [
    "random_genotype",
    "repair_genotype",
    "genotype_key",
    "genotype_kinds",
    "MutationConfig",
    "mutate",
    "crossover_one_point",
    "crossover_two_point",
    "crossover_uniform",
    "select_tournament",
    "select_roulette",
    "select_rank",
    "CROSSOVERS",
    "MUTATIONS",
    "SELECTIONS",
    "DEFAULT_ATTACK_SEED",
    "FitnessCache",
    "MultiObjectiveFitness",
    "SpecFitness",
    "cache_namespace",
    "BatchStats",
    "Evaluator",
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "AsyncEvaluator",
    "supports_async",
    "BacklogTuner",
    "SearchLoop",
    "LoopPolicy",
    "LoopState",
    "SelectionPolicy",
    "VariationPolicy",
    "SurvivalPolicy",
    "resolve_async",
    "GaConfig",
    "GaResult",
    "GenerationStats",
    "GeneticAlgorithm",
    "Nsga2",
    "Nsga2Config",
    "Nsga2Result",
    "AutoLock",
    "AutoLockConfig",
    "AutoLockResult",
    "RandomSearch",
    "HillClimber",
    "SimulatedAnnealing",
    "SearchResult",
]
