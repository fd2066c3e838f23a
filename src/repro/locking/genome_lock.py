"""Genotype → phenotype mapping: build a locked netlist from primitive genes.

This is the encoding step of the AutoLock workflow (Fig. 1 of the paper):
the GA manipulates heterogeneous lists of primitive genes (see
:mod:`repro.locking.primitives`), and this module turns such a list back
into a concrete locked circuit whose key bit ``i`` is gene ``i``'s ``k``
field. The inverse, :func:`genes_from_locked`, decodes a locked
circuit's insertion records back into genes through the same primitive
registry, so any scheme whose records a registered primitive understands
can seed the evolutionary search.

:func:`lock_with_genes` is the one gene-application loop: the fitness
path reaches it through :class:`~repro.locking.delta.DeltaRelocker`, and
champion materialisation calls it directly. Genes apply to a
:class:`~repro.netlist.cow.CowNetlist` view of the original, which
shares the original's fanout map copy-on-write and defers the
acyclicity check to one topological sort per genotype.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import LockingError, NetlistError
from repro.locking.base import LockedCircuit
from repro.locking.key import Key
from repro.locking.primitives import (
    Gene,
    primitive_for_gene,
    primitive_for_insertion,
)
from repro.netlist.cow import CowNetlist
from repro.netlist.netlist import Netlist


def genotype_scheme_name(genes: Sequence[Gene]) -> str:
    """Scheme label of a genotype-built circuit.

    Pure-MUX genotypes keep the historical ``"dmux-genotype"`` label;
    mixed genotypes name their primitive kinds in order of first
    appearance (``"genotype-mux+xor"``).
    """
    kinds = list(dict.fromkeys(g.kind for g in genes))
    if kinds == ["mux"]:
        return "dmux-genotype"
    return "genotype-" + "+".join(kinds)


def lock_with_genes(
    original: Netlist,
    genes: Sequence[Gene],
    key_prefix: str = "keyinput",
) -> LockedCircuit:
    """Apply ``genes`` in order to a copy-on-write view of ``original``.

    Gene ``i`` is wired to key input ``{key_prefix}{i}`` (one key bit per
    gene — the paper's encoding, whatever the gene's primitive kind).
    Raises :class:`~repro.errors.LockingError` if any gene is
    inapplicable; the evolutionary operators are expected to repair
    genotypes *before* building phenotypes. ``original`` is never
    mutated; the returned netlist shares its unchanged fanout lists.
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

    locked = CowNetlist.from_base(original, f"{original.name}_auto{len(genes)}")
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
        raise LockingError(f"genotype built a cyclic netlist: {exc}") from exc

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


def genes_from_locked(locked: LockedCircuit) -> list[Gene]:
    """Recover the genotype of a locked circuit (encoding step).

    Each insertion record is decoded by the registered primitive that
    understands it; any record no primitive can decode — or that carries
    no single-key-bit gene (e.g. a ``two_key`` D-MUX pair, a multi-
    consumer RLL net cut) — raises a :class:`LockingError` naming the
    insertion index and the circuit's scheme.
    """
    genes: list[Gene] = []
    for idx, rec in enumerate(locked.insertions):
        primitive = primitive_for_insertion(rec)
        if primitive is None:
            raise LockingError(
                f"insertion {idx} of scheme {locked.scheme!r}: no registered "
                f"primitive decodes {type(rec).__name__} records"
            )
        try:
            genes.append(primitive.decode(rec))
        except LockingError as exc:
            raise LockingError(
                f"insertion {idx} of scheme {locked.scheme!r}: {exc}"
            ) from exc
    return genes
