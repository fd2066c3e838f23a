"""Delta re-locking: amortised genotype → phenotype mapping.

:func:`repro.locking.genome_lock.lock_with_genes` is a one-shot builder:
it deep-copies the original netlist and lets every gene insertion
invalidate (and thus rebuild) the full fanout map and topological order.
The GA calls it once per *candidate* against the *same* base circuit, so
nearly all of that work is recomputed identically thousands of times —
profiling the fitness hot path shows ~78%% of re-lock time in per-gene
``topological_order`` calls and another ~23%% in fanout rebuilds.

:class:`DeltaRelocker` keeps one immutable base and applies each
genotype as a delta on a :class:`~repro.netlist.cow.CowNetlist` view:
the base's fanout map is computed once and shared copy-on-write across
candidates, gene insertions patch it incrementally, and acyclicity is
verified with a single topological sort per candidate instead of one per
gene. The produced :class:`~repro.locking.base.LockedCircuit` is
structurally identical to the scratch builder's output — same gate
names, same insertion order, same key, same scheme label, same error
messages for invalid genotypes (property-tested in
``tests/test_locking_delta.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import LockingError, NetlistError
from repro.locking.base import LockedCircuit
from repro.locking.genome_lock import genotype_scheme_name
from repro.locking.key import Key
from repro.locking.primitives import Gene, primitive_for_gene
from repro.netlist.cow import CowNetlist
from repro.netlist.netlist import Netlist

__all__ = ["DeltaRelocker"]


class DeltaRelocker:
    """Re-lock one base circuit with many genotypes, incrementally.

    Parameters
    ----------
    original:
        The unlocked base design. Treated as immutable for the lifetime
        of this relocker; mutating it afterwards invalidates the cached
        fanout map silently.

    Notes
    -----
    The relocker is a drop-in replacement for
    ``lock_with_genes(original, genes, key_prefix)`` — same validation,
    same outputs, same exceptions — holding only plain-data caches, so
    it pickles cleanly into worker processes alongside the fitness
    function that owns it.
    """

    def __init__(self, original: Netlist) -> None:
        self.original = original
        # Computed once; every candidate's view snapshots it
        # copy-on-write instead of rebuilding (base lists are never
        # mutated in place by CowNetlist).
        self._base_fanouts = original.fanouts()

    def lock(
        self, genes: Sequence[Gene], key_prefix: str = "keyinput"
    ) -> LockedCircuit:
        """Apply ``genes`` in order as a delta against the base.

        Mirrors :func:`~repro.locking.genome_lock.lock_with_genes`
        gene-for-gene; see there for the encoding contract.
        """
        if not genes:
            raise LockingError("genotype must contain at least one gene")
        seen_wires: set[tuple[str, str]] = set()
        for idx, gene in enumerate(genes):
            for wire in gene.wires:
                if wire in seen_wires:
                    raise LockingError(
                        f"gene {idx} reuses wire {wire[0]}->{wire[1]}; "
                        "genotype needs repair"
                    )
                seen_wires.add(wire)

        original = self.original
        locked = CowNetlist.from_base(
            original,
            f"{original.name}_auto{len(genes)}",
            self._base_fanouts,
        )
        insertions: list[Any] = []
        for idx, gene in enumerate(genes):
            try:
                insertions.append(
                    primitive_for_gene(gene).apply_gene(
                        locked, gene, f"{key_prefix}{idx}"
                    )
                )
            except LockingError as exc:
                raise LockingError(f"gene {idx} inapplicable: {exc}") from exc

        # The view kept the base's lockable-wire pool, which is exact only
        # for samplers that filter out these genes' wires; the returned
        # circuit must answer a fresh scan.
        locked._lockable_cache = None
        # The per-gene ``check_acyclic`` guard is a no-op on the view;
        # validate the finished phenotype once instead.
        try:
            locked.topological_order()
        except NetlistError as exc:  # pragma: no cover - genes are pre-checked
            raise LockingError(f"delta re-lock built a cyclic netlist: {exc}") from exc

        key = Key(
            tuple(f"{key_prefix}{i}" for i in range(len(genes))),
            tuple(g.k for g in genes),
        )
        return LockedCircuit(
            netlist=locked,
            key=key,
            scheme=genotype_scheme_name(genes),
            original=original,
            insertions=insertions,
        )

    __call__ = lock
