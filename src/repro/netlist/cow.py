"""Copy-on-write netlist view for re-locking and breeding.

:class:`CowNetlist` is a :class:`~repro.netlist.netlist.Netlist` seeded
from an immutable *base* design whose graph caches are maintained
**incrementally** instead of being invalidated wholesale on every
mutation. The plain ``Netlist`` drops its fanout map, topological order
and lockable-wire pool after each ``add_gate``/``rewire_pin`` and
rebuilds them from scratch on the next query — fine for one-shot
construction, ruinous for the GA, which applies genotypes to the same
base circuit over and over: once per candidate to re-lock it
(:func:`~repro.locking.genome_lock.lock_with_genes`), and once per
sampled, repaired or validated genotype while breeding
(:mod:`repro.ec.genotype`). On a plain copy each gene paid two full
fanout rebuilds, one full Kahn sort and one full lockable-wire scan
(see ``benchmarks/bench_delta_relock.py``).

The view changes four behaviours:

* **Incremental fanouts.** The fanout map starts as a shallow snapshot
  of the base's map, sharing the base's per-signal consumer lists. A
  mutation touching signal ``s`` first *owns* that one list (copies it),
  then patches it in place — only the touched fanout regions are ever
  copied, and ``fanouts()``/``has_path`` never trigger a rebuild.
* **Deferred acyclicity.** :meth:`check_acyclic` is a no-op. The locking
  primitives call it defensively after every insertion, but their
  applicability checks already reject cycle-creating genes *before*
  mutating; the view's owner (``lock_with_genes``, the genotype
  functions) runs one full :meth:`topological_order` per genotype at the
  end, so every genotype is still verified — once, not once per gene.
* **Maintained topological index.** The view starts with a copy of the
  base's :class:`~repro.netlist.order.TopoIndex` and keeps it exact with
  the Pearce–Kelly dynamic topological sort: a new gate is labelled just
  above its highest fanin, and an added edge reorders only the region
  between its endpoints. :meth:`~repro.netlist.netlist.Netlist.has_path`
  prunes its search with it, so the gene-level reachability checks stop
  walking whole fanout cones. A mutation that closes a cycle drops the
  index (``has_path`` then searches unbounded); it never raises.
* **Retained lockable-wire pool.** The view starts with the base's
  cached pool and mutations keep it. Applying a gene of any registered
  primitive removes exactly that gene's own wires from the pool (the
  pool contract of :mod:`repro.locking.primitives`), and every sampler
  filters the pool by the wires of the genes applied so far, so the
  filtered base pool *is* the filtered fresh scan. Only the code that
  applied the genes can filter them out, so a view mutated other than
  by applying genes must not be asked for its pool, and a view handed
  on must drop it (``lock_with_genes`` does).

The gates dict is copied from the base (gates are immutable, so a dict
copy is a deep copy), and insertion order matches a scratch
``base.copy()`` build exactly — every iteration-order-sensitive consumer
(graph extraction, simulation, metrics) sees the identical structure.
The cached topological order (the exact list simulation, SAT encoding
and the writers consume) is still invalidated by mutations and
recomputed lazily by the Kahn sort that also checks acyclicity.

A pickled view drops its caches like any netlist and rebuilds its fanout
map (now private to it) on unpickle, so it never needs its base; its
topological index is rebuilt on the next ``has_path``.
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


class CowNetlist(Netlist):
    """A mutable copy-on-write view over an immutable base netlist."""

    def __init__(self, name: str = "design") -> None:
        super().__init__(name)
        # Signals whose fanout list is private to this view (safe to
        # mutate in place). Everything else still aliases the base map.
        self._owned: set[str] = set()

    @classmethod
    def from_base(cls, base: Netlist, name: str | None = None) -> "CowNetlist":
        """A view of ``base`` ready for incremental locking mutations.

        The base caches its own fanout map, so re-locking the same base
        many times builds that map once.
        """
        view = cls(name or base.name)
        view.inputs = list(base.inputs)
        view.key_inputs = list(base.key_inputs)
        view._input_names = set(base._input_names)
        view.outputs = list(base.outputs)
        view.gates = dict(base.gates)
        # Shallow snapshot: per-signal lists are shared with the base
        # until a mutation owns them.
        view._fanout_cache = dict(base.fanouts())
        view._owned = set()
        index = base._order_index()
        view._order_cache = None if index is None else index.copy()
        view._lockable_cache = base._lockable_cache
        return view

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        # Pickling dropped the fanout map, and a view never rebuilds it
        # on demand; rebuild it here, owned outright.
        self._fanout_cache = Netlist.fanouts(self)
        self._owned = set(self._fanout_cache)

    # ------------------------------------------------------------------
    # incremental cache maintenance
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        # Mutations still invalidate the topological order (recomputed
        # lazily, at most once per candidate), but never the fanout map
        # or the topological index (the overridden mutators below patch
        # them incrementally) nor the lockable-wire pool (kept under the
        # pool contract).
        self._topo_cache = None

    def _place(self, name: str, fanins=()) -> None:
        if self._order_cache is not None:
            self._order_cache.place(name, fanins)

    def _link(self, src: str, gate_name: str) -> None:
        """Restore the topological index after edge ``src → gate_name``."""
        index = self._order_cache
        if index is not None and not index.add_edge(
            src, gate_name, self._fanout_cache, self.gates
        ):
            self._order_cache = None  # cyclic: has_path searches unbounded

    def _own(self, signal: str) -> list[tuple[str, int]]:
        """The private (mutable) fanout list of ``signal``."""
        assert self._fanout_cache is not None
        if signal not in self._owned:
            self._fanout_cache[signal] = list(self._fanout_cache[signal])
            self._owned.add(signal)
        return self._fanout_cache[signal]

    def fanouts(self) -> dict[str, list[tuple[str, int]]]:
        assert self._fanout_cache is not None
        return self._fanout_cache

    def check_acyclic(self) -> None:
        """No-op: acyclicity is validated once per genotype by the
        caller (the gene-level reachability checks reject cycle-creating
        insertions before any mutation happens)."""

    # ------------------------------------------------------------------
    # mutators (base behaviour + incremental fanout and order patches)
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        super().add_input(name)
        self._fanout_cache[name] = []
        self._owned.add(name)
        self._place(name)

    def add_key_input(self, name: str) -> None:
        super().add_key_input(name)
        self._fanout_cache[name] = []
        self._owned.add(name)
        self._place(name)

    def add_gate(self, name: str, gtype: GateType, fanins) -> "Gate":
        gate = super().add_gate(name, gtype, fanins)
        self._fanout_cache[name] = []
        self._owned.add(name)
        for pin, src in enumerate(gate.fanins):
            self._own(src).append((name, pin))
        self._place(name, gate.fanins)
        return gate

    def remove_gate(self, name: str) -> None:
        gate = self.gates.get(name)
        super().remove_gate(name)
        for pin, src in enumerate(gate.fanins):
            self._own(src).remove((name, pin))
        del self._fanout_cache[name]
        self._owned.discard(name)
        if self._order_cache is not None:
            self._order_cache.drop(name)

    def rewire_pin(self, gate_name: str, pin: int, new_src: str) -> None:
        gate = self.gates.get(gate_name)
        if gate is None:
            raise NetlistError(f"no gate named {gate_name!r}")
        old_src = gate.fanins[pin] if pin < len(gate.fanins) else None
        super().rewire_pin(gate_name, pin, new_src)
        if old_src is not None:
            self._own(old_src).remove((gate_name, pin))
        self._own(new_src).append((gate_name, pin))
        self._link(new_src, gate_name)

    def widen_gate(self, gate_name: str, new_src: str) -> None:
        super().widen_gate(gate_name, new_src)
        pin = len(self.gates[gate_name].fanins) - 1
        self._own(new_src).append((gate_name, pin))
        self._link(new_src, gate_name)
