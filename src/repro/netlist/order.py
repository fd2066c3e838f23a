"""A maintained topological index: one integer label per signal.

:class:`TopoIndex` labels every signal of an acyclic netlist so that each
edge ``u → v`` (``u`` a fanin of gate ``v``) has ``ord[u] < ord[v]``.
Reachability then has a cheap necessary condition: a path ``a ⇝ b``
exists only if ``ord[a] < ord[b]``, and every signal on it has a label
below ``ord[b]`` — which is how :meth:`Netlist.has_path
<repro.netlist.netlist.Netlist.has_path>` prunes its search.

A plain :class:`~repro.netlist.netlist.Netlist` builds the index from its
topological order and drops it on mutation. A
:class:`~repro.netlist.cow.CowNetlist` keeps it across mutations with
the dynamic topological sort of Pearce & Kelly ("A Dynamic Topological
Sort Algorithm for Directed Acyclic Graphs", ACM JEA 2006):

* labels start gap-spaced (``position × GAP``), so a new gate takes the
  first free integer just above its highest fanin — the consumer it is
  wired into next usually sits above that already, and when it does not,
  the region Pearce–Kelly reorders is bounded by the new gate's drivers,
  not by the consumer's whole fanout cone;
* new inputs and fanin-free gates take fresh labels below every label;
* an edge ``x → y`` with ``ord[x] > ord[y]`` reorders only the
  descendants of ``y`` labelled below ``ord[x]`` and the ancestors of
  ``x`` labelled above ``ord[y]``, permuting their labels among them;
  reaching ``x`` from ``y`` on the way means the edge closed a cycle,
  which :meth:`TopoIndex.add_edge` reports instead of raising.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.netlist.gates import Gate

#: Spacing of the labels of a freshly built index.
GAP = 64


class TopoIndex:
    """Topological labels of a netlist's signals (see the module notes)."""

    __slots__ = ("ord", "span", "extra", "floor")

    def __init__(self, signals: Iterable[str]) -> None:
        # ``signals`` in topological order: inputs first, then gates.
        self.ord: dict[str, int] = {s: i * GAP for i, s in enumerate(signals)}
        # Labels in use are the multiples of GAP below ``span`` plus
        # ``extra``; removed signals never free theirs.
        self.span = GAP * len(self.ord)
        self.extra: set[int] = set()
        self.floor = 0  # no label is below it

    def copy(self) -> "TopoIndex":
        dup = TopoIndex(())
        dup.ord = dict(self.ord)
        dup.span = self.span
        dup.extra = set(self.extra)
        dup.floor = self.floor
        return dup

    def _taken(self, label: int) -> bool:
        return label in self.extra or (
            0 <= label < self.span and not label % GAP
        )

    def place(self, name: str, fanins: Sequence[str]) -> None:
        """Label a new signal: just above its highest fanin, or below
        every label when it has none (inputs, constants)."""
        if fanins:
            label = max(map(self.ord.__getitem__, fanins)) + 1
            while self._taken(label):
                label += 1
        else:
            self.floor -= 1
            label = self.floor
        self.extra.add(label)
        self.ord[name] = label

    def drop(self, name: str) -> None:
        del self.ord[name]

    def add_edge(
        self,
        src: str,
        dst: str,
        fanouts: Mapping[str, list[tuple[str, int]]],
        gates: Mapping[str, Gate],
    ) -> bool:
        """Restore the order after edge ``src → dst`` was added.

        Returns ``False`` — leaving the labels unusable — when the edge
        closed a cycle.
        """
        ord_ = self.ord
        lower, upper = ord_[dst], ord_[src]
        if upper < lower:
            return True
        if src == dst:
            return False
        forward = [dst]
        seen = {dst}
        stack = [dst]
        while stack:
            for consumer, _pin in fanouts[stack.pop()]:
                if consumer == src:
                    return False
                if consumer not in seen and ord_[consumer] < upper:
                    seen.add(consumer)
                    stack.append(consumer)
                    forward.append(consumer)
        backward = [src]
        seen = {src}
        stack = [src]
        while stack:
            gate = gates.get(stack.pop())
            if gate is None:
                continue
            for fanin in gate.fanins:
                if fanin not in seen and ord_[fanin] > lower:
                    seen.add(fanin)
                    stack.append(fanin)
                    backward.append(fanin)
        backward.sort(key=ord_.__getitem__)
        forward.sort(key=ord_.__getitem__)
        moved = backward + forward
        for name, label in zip(moved, sorted(map(ord_.__getitem__, moved))):
            ord_[name] = label
        return True
