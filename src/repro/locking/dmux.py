"""Deceptive MUX (D-MUX) pairwise locking.

Following Sisejkovic et al. (TCAD 2021) and the AutoLock paper's genotype,
one locking step takes two true wires ``f_i → g_i`` and ``f_j → g_j`` and
inserts a *pair* of key-controlled multiplexers:

.. code-block:: text

      f_i ──┬────────────►│MUX_i│──► g_i          correct key selects f_i
            │     f_j ───►│ sel=key │
            │              ─────
            └────────────►│MUX_j│──► g_j          correct key selects f_j
            f_j ─────────►│ sel=key │

Both MUXes see the *same* data-source pair ``{f_i, f_j}``, so for a wrong
key the connections are swapped coherently and every key hypothesis yields
a structurally plausible netlist — the property that defeats naive
locality-based learning and that MuxLink attacks through fan-in/fan-out
context.

Two key-wiring strategies are provided:

* ``"shared"`` — one key bit drives both selects (the paper's genotype
  ``{f_i, f_j, g_i, g_j, k}``; 1 key bit, 2 MUXes per gene);
* ``"two_key"`` — independent key bits per MUX (higher overhead, larger
  wrong-key space; the D-MUX paper's multi-key variant).

Cycle safety: inserting the pair adds paths ``f_j ⇒ g_i`` and
``f_i ⇒ g_j``; the insertion is rejected unless *neither* ``g_i ⇝ f_j``
nor ``g_j ⇝ f_i`` holds in the current netlist (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import LockingError
from repro.locking.base import LockedCircuit, LockingScheme
from repro.locking.key import Key
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.registry import register_scheme
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class MuxGene:
    """One locking location: the paper's genotype element {f_i,f_j,g_i,g_j,k}."""

    #: primitive tag (see :mod:`repro.locking.primitives`)
    kind: ClassVar[str] = "mux"

    f_i: str
    g_i: str
    f_j: str
    g_j: str
    k: int

    def __post_init__(self) -> None:
        if self.k not in (0, 1):
            raise LockingError(f"key bit must be 0/1, got {self.k}")

    def with_key(self, k: int) -> "MuxGene":
        """Copy with a different key bit (mutation operator)."""
        return MuxGene(self.f_i, self.g_i, self.f_j, self.g_j, k)

    @property
    def wires(self) -> tuple[tuple[str, str], tuple[str, str]]:
        """The two true wires ``(f_i, g_i)`` and ``(f_j, g_j)``."""
        return ((self.f_i, self.g_i), (self.f_j, self.g_j))

    def key_tuple(self) -> tuple:
        """Canonical hashable identity; untagged for historical cache
        compatibility (the other primitives' tuples are kind-tagged)."""
        return (self.f_i, self.g_i, self.f_j, self.g_j, self.k)


@dataclass(frozen=True)
class MuxSite:
    """One inserted MUX as the attacker sees it, plus ground truth.

    ``true_src``/``false_src`` are the correct and decoy data inputs of
    ``mux`` driving ``consumer``; ``key_bit`` is the correct value of
    ``key_name``. Attacks may read everything except ``true_src``/
    ``key_bit`` from the netlist itself.
    """

    mux: str
    consumer: str
    true_src: str
    false_src: str
    key_name: str
    key_bit: int


@dataclass(frozen=True)
class MuxPairInsertion:
    """Ground-truth record of one applied :class:`MuxGene`."""

    key_name_i: str
    key_bit_i: int
    key_name_j: str
    key_bit_j: int
    f_i: str
    g_i: str
    pin_i: int
    f_j: str
    g_j: str
    pin_j: int
    mux_i: str
    mux_j: str

    @property
    def consumer_pins(self) -> tuple[tuple[str, int], ...]:
        return ((self.g_i, self.pin_i), (self.g_j, self.pin_j))

    @property
    def sites(self) -> tuple[MuxSite, MuxSite]:
        """The two MUX sites this insertion created."""
        return (
            MuxSite(
                mux=self.mux_i,
                consumer=self.g_i,
                true_src=self.f_i,
                false_src=self.f_j,
                key_name=self.key_name_i,
                key_bit=self.key_bit_i,
            ),
            MuxSite(
                mux=self.mux_j,
                consumer=self.g_j,
                true_src=self.f_j,
                false_src=self.f_i,
                key_name=self.key_name_j,
                key_bit=self.key_bit_j,
            ),
        )


# ----------------------------------------------------------------------
# Gene resolution / applicability
# ----------------------------------------------------------------------
def _resolve_pins(netlist: Netlist, gene: MuxGene) -> tuple[int, int]:
    """Find the consumer pins the gene's wires currently occupy."""
    for gate_name in (gene.g_i, gene.g_j):
        if gate_name not in netlist.gates:
            raise LockingError(f"gene consumer {gate_name!r} is not a gate")
    pin_i = pin_j = None
    for pin, src in enumerate(netlist.gates[gene.g_i].fanins):
        if src == gene.f_i:
            pin_i = pin
            break
    for pin, src in enumerate(netlist.gates[gene.g_j].fanins):
        if src == gene.f_j:
            pin_j = pin
            break
    if pin_i is None:
        raise LockingError(f"wire {gene.f_i}->{gene.g_i} does not exist")
    if pin_j is None:
        raise LockingError(f"wire {gene.f_j}->{gene.g_j} does not exist")
    return pin_i, pin_j


def _check_gene(netlist: Netlist, gene: MuxGene) -> tuple[int, int]:
    """Full applicability check; returns resolved pins or raises.

    The two reachability checks reject pairings that would close a
    combinational cycle. On the copy-on-write views that relocking and
    breeding use, :meth:`~repro.netlist.netlist.Netlist.has_path` prunes
    them with the view's maintained topological index, so each check
    visits only signals ordered between its two endpoints.
    """
    if gene.f_i == gene.f_j:
        raise LockingError(f"gene drivers must differ, both are {gene.f_i!r}")
    if gene.g_i == gene.g_j:
        raise LockingError(f"gene consumers must differ, both are {gene.g_i!r}")
    pins = _resolve_pins(netlist, gene)
    # Select pins of MUX key-gates must stay key-driven; never lock a MUX.
    for gate_name in (gene.g_i, gene.g_j):
        if netlist.gates[gate_name].gtype is GateType.MUX:
            raise LockingError(f"refusing to lock a MUX key-gate pin ({gate_name})")
    for src in (gene.f_i, gene.f_j):
        if src in netlist.key_inputs:
            raise LockingError(f"driver {src!r} is a key input")
        if src in netlist.gates and netlist.gates[src].gtype is GateType.MUX:
            raise LockingError(f"driver {src!r} is an inserted MUX output")
    if netlist.has_path(gene.g_i, gene.f_j):
        raise LockingError(
            f"cycle risk: {gene.g_i} reaches {gene.f_j}; pair rejected"
        )
    if netlist.has_path(gene.g_j, gene.f_i):
        raise LockingError(
            f"cycle risk: {gene.g_j} reaches {gene.f_i}; pair rejected"
        )
    return pins


def gene_applicable(netlist: Netlist, gene: MuxGene) -> bool:
    """True if ``gene`` can be applied to ``netlist`` right now."""
    try:
        _check_gene(netlist, gene)
    except LockingError:
        return False
    return True


def apply_gene(
    netlist: Netlist,
    gene: MuxGene,
    key_name_i: str,
    key_name_j: str | None = None,
    key_bit_j: int | None = None,
) -> MuxPairInsertion:
    """Apply ``gene`` to ``netlist`` in place (mutating it).

    With only ``key_name_i`` given, both MUX selects share that key input
    (strategy ``"shared"``). Supplying ``key_name_j``/``key_bit_j`` wires
    the second MUX to its own key bit (strategy ``"two_key"``).
    Key inputs are created if they do not exist yet.
    """
    pin_i, pin_j = _check_gene(netlist, gene)
    shared = key_name_j is None
    if shared:
        key_name_j = key_name_i
        key_bit_j = gene.k
    elif key_bit_j is None:
        raise LockingError("two_key strategy requires key_bit_j")

    for key_name in {key_name_i, key_name_j}:
        if not netlist.is_signal(key_name):
            netlist.add_key_input(key_name)
        elif key_name not in netlist.key_inputs:
            raise LockingError(f"{key_name!r} exists but is not a key input")

    mux_i = netlist.fresh_name(f"mx_{key_name_i}_a")
    mux_j = netlist.fresh_name(f"mx_{key_name_j}_b")
    # MUX(sel, d0, d1): the correct key bit must select the true source.
    d_i = (gene.f_i, gene.f_j) if gene.k == 0 else (gene.f_j, gene.f_i)
    d_j = (gene.f_j, gene.f_i) if key_bit_j == 0 else (gene.f_i, gene.f_j)
    netlist.add_gate(mux_i, GateType.MUX, [key_name_i, *d_i])
    netlist.add_gate(mux_j, GateType.MUX, [key_name_j, *d_j])
    netlist.rewire_pin(gene.g_i, pin_i, mux_i)
    netlist.rewire_pin(gene.g_j, pin_j, mux_j)
    netlist.check_acyclic()  # defensive: must stay acyclic by construction
    return MuxPairInsertion(
        key_name_i=key_name_i,
        key_bit_i=gene.k,
        key_name_j=key_name_j,
        key_bit_j=key_bit_j,
        f_i=gene.f_i,
        g_i=gene.g_i,
        pin_i=pin_i,
        f_j=gene.f_j,
        g_j=gene.g_j,
        pin_j=pin_j,
        mux_i=mux_i,
        mux_j=mux_j,
    )


# ----------------------------------------------------------------------
# Site sampling
# ----------------------------------------------------------------------
def lockable_wires(netlist: Netlist) -> tuple[tuple[str, str], ...]:
    """All wires ``(driver, consumer_gate)`` eligible for locking.

    Excludes wires into or out of key gates — MUX key-gates, and any
    gate with a key-input fanin (the XOR/XNOR and AND/OR key gates of
    the other primitives) — plus key-input and constant drivers,
    mirroring D-MUX's used-wire rules. Keeping key-gate outputs out of
    the pool also guarantees every sampled gene references only signals
    of the *original* design, so a genotype sampled against a working
    copy (whose inserted gates carry temporary names) rebuilds
    identically through :func:`~repro.locking.genome_lock.lock_with_genes`.

    The pool is scanned once per unmutated netlist and cached on it
    (every :class:`~repro.netlist.netlist.Netlist` mutation drops it);
    it comes back as a tuple so no caller can corrupt the cache. A
    :class:`~repro.netlist.cow.CowNetlist` breeding workspace keeps its
    base's pool across gene applications instead: callers see it through
    :func:`free_wires`, whose filter by the applied genes' wires makes it
    exact (the pool contract of :mod:`repro.locking.primitives`).
    """
    if netlist._lockable_cache is None:
        netlist._lockable_cache = tuple(_scan_lockable_wires(netlist))
    return netlist._lockable_cache


def _scan_lockable_wires(netlist: Netlist) -> list[tuple[str, str]]:
    wires: list[tuple[str, str]] = []
    key_set = set(netlist.key_inputs)

    def is_key_fed(gate) -> bool:
        return any(f in key_set for f in gate.fanins)

    for gate in netlist.gates.values():
        if gate.gtype is GateType.MUX:
            continue
        if key_set and is_key_fed(gate):
            continue
        for src in gate.fanins:
            if src in key_set:
                continue
            src_gate = netlist.gates.get(src)
            if src_gate is not None and (
                src_gate.gtype
                in (GateType.MUX, GateType.CONST0, GateType.CONST1)
                or (key_set and is_key_fed(src_gate))
            ):
                continue
            wires.append((src, gate.name))
    return wires


def free_wires(
    netlist: Netlist, used: set[tuple[str, str]]
) -> list[tuple[str, str]]:
    """The lockable wires of ``netlist`` not consumed by earlier genes.

    Every gene sampler draws its sites from this list, by index, so its
    order (gate order, then pin order) is part of the RNG contract.
    """
    return [w for w in lockable_wires(netlist) if w not in used]


def sample_gene(
    netlist: Netlist,
    seed_or_rng=None,
    used_pins: set[tuple[str, str]] | None = None,
    max_tries: int = 400,
) -> MuxGene | None:
    """Sample a random applicable :class:`MuxGene` (or ``None`` if none found).

    ``used_pins`` is a set of wires ``(driver, consumer)`` already consumed
    by earlier genes; the sample avoids them so one netlist pin is never
    locked twice.
    """
    rng = derive_rng(seed_or_rng)
    wires = free_wires(netlist, used_pins or set())
    if len(wires) < 2:
        return None
    for _ in range(max_tries):
        ia, ib = rng.integers(0, len(wires), size=2)
        (f_i, g_i), (f_j, g_j) = wires[int(ia)], wires[int(ib)]
        gene = MuxGene(f_i, g_i, f_j, g_j, int(rng.integers(0, 2)))
        if gene_applicable(netlist, gene):
            return gene
    return None


# ----------------------------------------------------------------------
# The scheme
# ----------------------------------------------------------------------
@register_scheme("dmux")
class DMuxLocking(LockingScheme):
    """D-MUX locking with ``"shared"`` or ``"two_key"`` key wiring."""

    name = "dmux"

    def __init__(self, strategy: str = "shared", key_prefix: str = "keyinput"):
        if strategy not in ("shared", "two_key"):
            raise LockingError(f"unknown D-MUX strategy {strategy!r}")
        self.strategy = strategy
        self._key_prefix = key_prefix

    def lock(
        self, netlist: Netlist, key_length: int, seed_or_rng=None
    ) -> LockedCircuit:
        self._require_positive_key(key_length)
        if self.strategy == "two_key" and key_length % 2:
            raise LockingError("two_key strategy needs an even key length")
        rng = derive_rng(seed_or_rng)
        original = netlist
        locked = netlist.copy(f"{netlist.name}_{self.name}{key_length}")
        key_names = self._fresh_key_names(locked, key_length, self._key_prefix)

        insertions: list[MuxPairInsertion] = []
        used: set[tuple[str, str]] = set()
        bits: list[int] = []
        n_pairs = key_length if self.strategy == "shared" else key_length // 2
        for p in range(n_pairs):
            gene = sample_gene(locked, rng, used_pins=used)
            if gene is None:
                raise LockingError(
                    f"{netlist.name}: ran out of lockable wire pairs after "
                    f"{p} of {n_pairs} insertions"
                )
            if self.strategy == "shared":
                rec = apply_gene(locked, gene, key_names[p])
                bits.append(gene.k)
            else:
                bit_j = int(rng.integers(0, 2))
                rec = apply_gene(
                    locked,
                    gene,
                    key_names[2 * p],
                    key_names[2 * p + 1],
                    key_bit_j=bit_j,
                )
                bits.extend([gene.k, bit_j])
            insertions.append(rec)
            used.update(gene.wires)

        key = Key(tuple(key_names), tuple(bits))
        return LockedCircuit(
            netlist=locked,
            key=key,
            scheme=f"{self.name}-{self.strategy}",
            original=original,
            insertions=insertions,
        )
