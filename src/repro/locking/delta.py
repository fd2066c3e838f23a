"""Re-locking one base circuit with many genotypes.

The GA re-locks every fresh candidate against the same base circuit.
:class:`DeltaRelocker` is the fitness path's handle on that step: it
binds the base once and delegates each genotype to
:func:`~repro.locking.genome_lock.lock_with_genes`, which applies the
genes as a delta on a copy-on-write view of the base (shared fanout
map, one topological sort per genotype). The relocker adds only the
``autolock_relock_seconds`` histogram, so fitness re-locks are timed
while champion materialisation, which calls ``lock_with_genes``
directly, is not counted as one.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import lock_with_genes
from repro.locking.primitives import Gene
from repro.netlist.netlist import Netlist
from repro.obs import metrics as obs_metrics

__all__ = ["DeltaRelocker"]

_RELOCK_SECONDS = obs_metrics.METRICS.histogram(
    "autolock_relock_seconds",
    "Fitness-path phenotype re-locking wall time",
)


class DeltaRelocker:
    """Re-lock one immutable base circuit with many genotypes.

    Holds only the base, so it pickles cleanly into worker processes
    alongside the fitness function that owns it.
    """

    def __init__(self, original: Netlist) -> None:
        self.original = original

    def lock(
        self, genes: Sequence[Gene], key_prefix: str = "keyinput"
    ) -> LockedCircuit:
        """``lock_with_genes(self.original, genes, key_prefix)``, timed."""
        started = time.perf_counter()
        locked = lock_with_genes(self.original, list(genes), key_prefix)
        _RELOCK_SECONDS.observe(time.perf_counter() - started)
        return locked
