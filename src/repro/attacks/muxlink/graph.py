"""Attacker's view of a MUX-locked netlist.

MuxLink (Alrahis et al., DATE 2022) casts key recovery as link prediction:
remove every key-controlled MUX from the netlist, leaving "open" pins, and
ask which of the MUX's two data inputs is the true driver of each consumer.
This module builds that *observed graph* — the locked netlist minus key
inputs and key-MUXes — plus the list of link queries, using only
information genuinely available to an oracle-less attacker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.netlist.gates import Gate, GateType
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class MuxQuery:
    """One key-controlled MUX the attacker must resolve.

    Deciding that ``d0`` drives the consumers implies key bit 0 (MUX
    semantics select ``d0`` at 0), and vice versa.
    """

    mux: str
    key_name: str
    d0: str
    d1: str
    consumers: tuple[str, ...]


#: What an *observed* key-gate kind says about its key bit, per the
#: published insertion conventions (EPIC XOR/XNOR, AND/OR masking): a
#: correct-key-transparent gate of kind XOR was inserted for bit 0, XNOR
#: for bit 1, AND for bit 1, OR for bit 0. Naive (unsynthesised) RLL and
#: the xor/and_or locking primitives both leak the bit this way.
KEYGATE_KIND_BIT: dict[str, int] = {"XOR": 0, "XNOR": 1, "AND": 1, "OR": 0}


@dataclass(frozen=True)
class KeyGateQuery:
    """One non-MUX key gate (XOR/XNOR/AND/OR) visible to the attacker.

    ``kind`` is the observed gate type; :data:`KEYGATE_KIND_BIT` maps it
    to the key bit the insertion convention implies.
    """

    gate: str
    key_name: str
    kind: str


@dataclass
class ObservedGraph:
    """Undirected graph over observed signals with gate-type labels.

    ``directed_edges`` additionally records observed *wire directions*
    (driver → consumer), which supply the self-supervised positive
    training samples.
    """

    nodes: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)
    gtypes: list[str] = field(default_factory=list)
    adj: list[set[int]] = field(default_factory=list)
    directed_edges: list[tuple[int, int]] = field(default_factory=list)
    is_gate: list[bool] = field(default_factory=list)
    #: longest-path logic level per node (inputs at 0), over observed wires;
    #: an attacker can always compute this, and locality in levels is the
    #: key structural signal separating true links from D-MUX decoys.
    levels: list[int] = field(default_factory=list)
    #: node index -> observed key-gate kind ("XOR"/"XNOR"/"AND"/"OR") for
    #: nodes whose dropped fanin was a key input. Empty on pure-MUX
    #: designs, so pre-keygate behaviour (and every golden) is untouched.
    keygate_kinds: dict[int, str] = field(default_factory=dict)
    #: bumped on every adjacency mutation; invalidates the CSR snapshot.
    _adj_version: int = field(default=0, repr=False)
    _csr_cache: tuple[int, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    def add_node(self, name: str, gtype: str, gate: bool) -> int:
        if name in self.index:
            return self.index[name]
        idx = len(self.nodes)
        self.nodes.append(name)
        self.index[name] = idx
        self.gtypes.append(gtype)
        self.adj.append(set())
        self.is_gate.append(gate)
        return idx

    def add_edge(self, u: int, v: int) -> None:
        """Add a directed wire u → v (stored undirected + direction list)."""
        if u == v:
            return
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.directed_edges.append((u, v))
        self._adj_version += 1

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def compute_levels(self) -> None:
        """(Re)compute longest-path levels from the directed wire list."""
        n = self.n_nodes
        indeg = [0] * n
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.directed_edges:
            indeg[v] += 1
            out[u].append(v)
        level = [0] * n
        ready = [i for i in range(n) if indeg[i] == 0]
        while ready:
            node = ready.pop()
            above = level[node] + 1
            for nxt in out[node]:
                if level[nxt] < above:
                    level[nxt] = above
                indeg[nxt] -= 1
                if not indeg[nxt]:
                    ready.append(nxt)
        self.levels = level

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def remove_undirected(self, u: int, v: int) -> bool:
        """Temporarily drop the undirected edge; returns True if present.

        Callers must restore with :meth:`restore_undirected`. Used to keep
        positive training samples honest (SEAL convention: the edge being
        predicted must not be visible to the feature extractor).
        """
        if v in self.adj[u]:
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            self._adj_version += 1
            return True
        return False

    def restore_undirected(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._adj_version += 1

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR snapshot of the undirected adjacency: ``(indptr, indices)``.

        Row ``i``'s neighbours are ``indices[indptr[i]:indptr[i+1]]``,
        sorted ascending. Rebuilt lazily when the adjacency changes
        (including :meth:`remove_undirected`/:meth:`restore_undirected`
        masking), so bulk callers — the batched subgraph extractor, the
        stacked GNN feature builder — amortise one build across a whole
        population of link queries. BFS over these flat int arrays
        replaces the per-query dict/set churn of the scalar extractor.
        """
        cache = self._csr_cache
        if cache is not None and cache[0] == self._adj_version:
            return cache[1], cache[2]
        n = self.n_nodes
        counts = np.fromiter(
            (len(s) for s in self.adj), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for i, nbrs in enumerate(self.adj):
            indices[indptr[i] : indptr[i + 1]] = sorted(nbrs)
        self._csr_cache = (self._adj_version, indptr, indices)
        return indptr, indices


def extract_observed(netlist: Netlist) -> tuple[ObservedGraph, list[MuxQuery]]:
    """Build the observed graph and MUX queries for ``netlist``.

    Key inputs are dropped entirely; each MUX whose select pin is a key
    input becomes a :class:`MuxQuery` instead of a node. Everything else —
    including MUXes that are part of the original design — stays a normal
    node.

    The key-MUX set is found in one pass, then nodes and wires are
    appended straight into the graph's lists in netlist order — the same
    nodes, adjacency insertion order, wire list and ``_adj_version`` as
    :meth:`ObservedGraph.add_node`/:meth:`ObservedGraph.add_edge` give.
    """
    key_set = set(netlist.key_inputs)
    gates = netlist.gates
    key_muxes: dict[str, Gate] = {}
    kept: list[Gate] = []
    for gate in gates.values():
        if gate.gtype is GateType.MUX and gate.fanins[0] in key_set:
            key_muxes[gate.name] = gate
        else:
            kept.append(gate)

    graph = ObservedGraph()
    nodes, index, gtypes = graph.nodes, graph.index, graph.gtypes
    adj, is_gate = graph.adj, graph.is_gate
    for name, gtype, gate_flag in chain(
        ((sig, "PI", False) for sig in netlist.inputs),
        ((gate.name, gate.gtype.value, True) for gate in kept),
    ):
        if name in index:
            continue
        index[name] = len(nodes)
        nodes.append(name)
        gtypes.append(gtype)
        adj.append(set())
        is_gate.append(gate_flag)

    directed = graph.directed_edges
    keygate_kinds = graph.keygate_kinds
    mux_consumers: dict[str, list[str]] = {}
    for gate in kept:
        g_idx = index[gate.name]
        for src in gate.fanins:
            if src in key_set:
                # The key fanin is invisible to the attacker, but the
                # *kind* of the gate that consumed it is not: annotate
                # XOR/XNOR/AND/OR key gates so key-gate-aware features
                # (and the SAAM kind-read) can score these bits too.
                kind = gate.gtype.value
                if kind in KEYGATE_KIND_BIT:
                    keygate_kinds[g_idx] = kind
                continue
            if src in key_muxes:
                mux_consumers.setdefault(src, []).append(gate.name)
                continue
            s_idx = index[src]
            if s_idx != g_idx:
                adj[s_idx].add(g_idx)
                adj[g_idx].add(s_idx)
                directed.append((s_idx, g_idx))
    graph._adj_version = len(directed)

    queries: list[MuxQuery] = []
    for name, gate in key_muxes.items():
        sel, d0, d1 = gate.fanins
        if d0 in key_muxes or d1 in key_muxes:
            # Chained key-MUXes are outside this attack's model; the site
            # simply stays undecided (counted as coin-flip in scoring).
            continue
        queries.append(
            MuxQuery(
                mux=name,
                key_name=sel,
                d0=d0,
                d1=d1,
                consumers=tuple(mux_consumers.get(name, ())),
            )
        )
    graph.compute_levels()
    return graph, queries


def extract_keygates(netlist: Netlist) -> list[KeyGateQuery]:
    """List the non-MUX key gates (XOR/XNOR/AND/OR) of ``netlist``.

    Key-select MUXes are handled by :func:`extract_observed` as
    :class:`MuxQuery` sites; this covers the complementary ``xor`` /
    ``and_or`` insertion styles, whose observed gate *kind* leaks the key
    bit per :data:`KEYGATE_KIND_BIT`. Deterministic (netlist iteration
    order); uses only attacker-visible structure.
    """
    key_set = set(netlist.key_inputs)
    sites: list[KeyGateQuery] = []
    for gate in netlist.gates.values():
        if gate.gtype is GateType.MUX:
            continue
        kind = gate.gtype.value
        if kind not in KEYGATE_KIND_BIT:
            continue
        for src in gate.fanins:
            if src in key_set:
                sites.append(
                    KeyGateQuery(gate=gate.name, key_name=src, kind=kind)
                )
                break
    return sites
