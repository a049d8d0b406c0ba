"""General workflow DAGs (paper Section V: future directions).

The paper's conclusion sketches the general-workflow problem: tasks form an
arbitrary DAG, each task requires the whole platform (so any execution is a
*serialisation* of the DAG), and one must jointly pick an execution order
and the resilience actions.  Even the restricted join-graph case with only
fail-stop errors is NP-hard [Aupy, Benoit, Casanova, Robert, APDCM'15].

This module provides the workflow model: a :class:`WorkflowDAG` holds the
weights and a :class:`DagGraph`, the task graph numbered once, with
validation (acyclicity, positive weights), classic queries (critical path,
levels) and the bridges to the linear-chain machinery
(:meth:`WorkflowDAG.serialise`).
"""

from __future__ import annotations

import heapq
import math
import re
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ..chains import TaskChain
from ..exceptions import InvalidChainError

__all__ = ["DagGraph", "WorkflowDAG", "canonical_node_key"]

_DIGIT_RUN = re.compile(r"(\d+)")


def canonical_node_key(node: Hashable) -> tuple:
    """Numeric-aware canonical sort key for task names.

    The canonical node order sorts on ``str(node)`` split into digit and
    non-digit runs, with digit runs compared *numerically*: ``"t2"``
    sorts before ``"t10"`` (a plain lexicographic/``repr`` sort puts
    ``"t10"`` first, silently diverging from generator node indices).
    Every deterministic tie-break over DAG nodes — join source
    enumeration, ready-set ordering, greedy-heuristic ties — must use
    this key so that node order always matches the numeric intuition.

    Digit runs sort before non-digit runs at the same position, and a
    final ``repr`` component disambiguates distinct nodes whose ``str``
    forms collide (e.g. ``1`` vs ``"1"``), keeping the order total.
    """
    chunks = tuple(
        (0, int(run), "") if run.isdigit() else (1, 0, run)
        for run in _DIGIT_RUN.split(str(node))
        if run
    )
    return (chunks, repr(node))


class DagGraph:
    """A task graph built once, never changed: tasks numbered in insertion order.

    ``edges`` lists the ``(u, v)`` task pairs by source in node order,
    successors in first-insertion order, a repeated edge once.
    ``preds[i]`` / ``succs[i]`` hold task ``i``'s neighbours' numbers.
    Each walk keeps the order of the networkx algorithm it names.
    """

    __slots__ = ("nodes", "number", "edges", "preds", "succs", "_pred", "_succ")

    def __init__(
        self, nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
    ) -> None:
        self.nodes: tuple[Hashable, ...] = tuple(nodes)
        number = self.number = {v: i for i, v in enumerate(self.nodes)}
        pred: dict[Hashable, dict] = {v: {} for v in self.nodes}
        succ: dict[Hashable, dict] = {v: {} for v in self.nodes}
        for u, v in edges:
            if u not in number or v not in number:
                raise InvalidChainError(
                    f"edge ({u!r}, {v!r}) references an unknown task"
                )
            if u == v:
                raise InvalidChainError(f"self-loop on task {u!r}")
            succ[u][v] = pred[v][u] = None  # dicts as insertion-ordered sets
        self._pred = {v: tuple(p) for v, p in pred.items()}
        self._succ = {v: tuple(s) for v, s in succ.items()}
        self.edges = tuple((u, v) for u in self.nodes for v in self._succ[u])
        self.preds = tuple(frozenset(map(number.get, pred[v])) for v in self.nodes)
        self.succs = tuple(frozenset(map(number.get, succ[v])) for v in self.nodes)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.nodes)

    def predecessors(self, node: Hashable) -> tuple[Hashable, ...]:
        return self._pred[node]

    def successors(self, node: Hashable) -> tuple[Hashable, ...]:
        return self._succ[node]

    def in_degree(self, node: Hashable) -> int:
        return len(self._pred[node])

    def out_degree(self, node: Hashable) -> int:
        return len(self._succ[node])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self._succ[u]

    def topological_sort(self) -> list[Hashable]:
        """Kahn's sort by generations, as ``nx.topological_sort``; the
        tasks on or after a cycle are left out."""
        indegree = {v: len(p) for v, p in self._pred.items()}
        order = [v for v in self.nodes if not indegree[v]]
        for v in order:  # visits the tasks appended below too
            for w in self._succ[v]:
                indegree[w] -= 1
                if not indegree[w]:
                    order.append(w)
        return order

    def canonical_sort(
        self, priority: Callable[[Hashable], float] = lambda v: 0.0
    ) -> list[Hashable]:
        """List scheduling: run the ready task of least ``priority(v)``,
        ties broken on :func:`canonical_node_key`.  With no priority, it
        is ``nx.lexicographical_topological_sort(key=canonical_node_key)``."""

        def entry(v: Hashable) -> tuple:
            return (priority(v), canonical_node_key(v), self.number[v])

        indegree = {v: len(p) for v, p in self._pred.items()}
        ready = [entry(v) for v in self.nodes if not indegree[v]]
        heapq.heapify(ready)
        order: list[Hashable] = []
        while ready:
            v = self.nodes[heapq.heappop(ready)[-1]]
            order.append(v)
            for w in self._succ[v]:
                indegree[w] -= 1
                if not indegree[w]:
                    heapq.heappush(ready, entry(w))
        return order

    def all_topological_sorts(self) -> Iterator[list[Hashable]]:
        """Every order, in ``nx.all_topological_sorts``'s sequence: Knuth's
        enumeration, rotating the ready list at the deepest position with
        choices left.  It keeps its own stack: a deep chain needs no recursion."""
        count = {v: len(p) for v, p in self._pred.items()}
        ready = deque(v for v in self.nodes if not count[v])
        order: list[Hashable] = []
        bases: list[Hashable] = []  # the first task tried at each position
        while True:
            while len(order) < len(self.nodes):
                v = ready.pop()
                for w in self._succ[v]:
                    count[w] -= 1
                    if not count[w]:
                        ready.append(w)
                if len(bases) == len(order):
                    bases.append(v)
                order.append(v)
            yield list(order)
            while bases:
                v = order.pop()
                for w in self._succ[v]:
                    count[w] += 1
                while ready and count[ready[-1]]:  # ``v``'s successors
                    ready.pop()
                ready.appendleft(v)
                if ready[-1] != bases[-1]:
                    break
                bases.pop()
            if not bases:
                return

    def find_cycle(self) -> list[tuple[Hashable, Hashable]]:
        """The edges of one dependency cycle (``[]`` when acyclic)."""
        left = set(self.nodes).difference(self.topological_sort())
        # each task left over waits on another: walk back until one repeats
        path = [v for v in self.nodes if v in left][:1]
        while path:
            v = next(u for u in self._pred[path[-1]] if u in left)
            if v in path:
                cycle = [v, *path[: path.index(v) : -1]]
                return list(zip(cycle, cycle[1:] + [v]))
            path.append(v)
        return []


class WorkflowDAG:
    """A weighted task DAG executed one task at a time (whole platform).

    Parameters
    ----------
    weights:
        Mapping from task name to computational weight (> 0, finite).
    edges:
        Iterable of ``(u, v)`` precedence pairs (``u`` before ``v``).
    name:
        Optional label.
    cost_multipliers:
        Optional mapping from task name to a positive cost multiplier
        scaling every resilience cost that task pays (checkpoints,
        verifications, recoveries — the output-size semantics of
        :meth:`~repro.core.costs.CostProfile.proportional_to_output`).
        Missing tasks default to 1.0 (the platform's scalar costs); an
        all-ones mapping is the paper's uniform model.

    Examples
    --------
    >>> dag = WorkflowDAG({"a": 5.0, "b": 3.0, "c": 2.0},
    ...                   [("a", "c"), ("b", "c")])
    >>> dag.n
    3
    >>> dag.is_join()
    True
    """

    def __init__(
        self,
        weights: Mapping[Hashable, float],
        edges: Iterable[tuple[Hashable, Hashable]] = (),
        name: str = "",
        cost_multipliers: Mapping[Hashable, float] | None = None,
    ) -> None:
        if not weights:
            raise InvalidChainError("a workflow needs at least one task")
        for node, w in weights.items():
            if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
                raise InvalidChainError(
                    f"task {node!r} weight must be positive and finite, got {w!r}"
                )
        self._weights = {node: float(w) for node, w in weights.items()}
        self._costs = dict.fromkeys(self._weights, 1.0)
        for node, m in (cost_multipliers or {}).items():
            if node not in weights:
                raise InvalidChainError(
                    f"cost multiplier references an unknown task {node!r}"
                )
            if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 0):
                raise InvalidChainError(
                    f"task {node!r} cost multiplier must be positive and "
                    f"finite, got {m!r}"
                )
            self._costs[node] = float(m)
        self.graph = DagGraph(weights, edges)
        cycle = self.graph.find_cycle()
        if cycle:
            raise InvalidChainError(f"workflow has a dependency cycle: {cycle}")
        self.name = name or f"dag-{self.n}"

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.graph.nodes)

    def weight(self, node: Hashable) -> float:
        """Weight of one task."""
        return self._weights[node]

    def cost_multiplier(self, node: Hashable) -> float:
        """Resilience-cost multiplier of one task (1.0 = platform scalars)."""
        return self._costs[node]

    def has_heterogeneous_costs(self) -> bool:
        """True when any task carries a cost multiplier != 1.0."""
        return any(m != 1.0 for m in self._costs.values())

    def cost_profile(self, order: list[Hashable], platform) -> "object | None":
        """Per-position :class:`~repro.core.costs.CostProfile` for ``order``.

        Each serialised position pays the platform's scalar costs scaled
        by the task's multiplier, so the profile *permutes with the
        order* — heterogeneity is attached to tasks, not chain slots.
        Returns ``None`` for homogeneous DAGs (the uniform paper model),
        which keeps every downstream memo and fast path unchanged.
        """
        if not self.has_heterogeneous_costs():
            return None
        from ..core.costs import CostProfile

        return CostProfile.scaled(
            platform, [self.cost_multiplier(v) for v in order]
        )

    @property
    def total_weight(self) -> float:
        """Sum of all task weights (serial error-free execution time)."""
        return float(sum(self._weights.values()))

    def sources(self) -> list[Hashable]:
        """Tasks with no predecessors."""
        return [v for v in self.graph if self.graph.in_degree(v) == 0]

    def sinks(self) -> list[Hashable]:
        """Tasks with no successors."""
        return [v for v in self.graph if self.graph.out_degree(v) == 0]

    def critical_path(self) -> tuple[list[Hashable], float]:
        """Longest weighted path: ``(nodes, total weight)``.

        With whole-platform tasks this is a lower bound on any schedule's
        error-free makespan only through the serial total; it is still the
        classic DAG metric users expect to query.
        """
        order = self.graph.topological_sort()
        dist: dict[Hashable, float] = {}
        pred: dict[Hashable, Hashable | None] = {}
        for v in order:
            best, arg = 0.0, None
            for u in self.graph.predecessors(v):
                if dist[u] > best:
                    best, arg = dist[u], u
            dist[v] = best + self.weight(v)
            pred[v] = arg
        end = max(dist, key=lambda v: dist[v])
        path = [end]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])
        path.reverse()
        return path, dist[end]

    def is_chain(self) -> bool:
        """True if the DAG is a simple linear chain: acyclic with every
        degree at most 1, it is a set of disjoint paths, and ``n - 1``
        edges make it one path."""
        return len(self.graph.edges) == self.n - 1 and all(
            self.graph.in_degree(v) <= 1 and self.graph.out_degree(v) <= 1
            for v in self.graph
        )

    def is_join(self) -> bool:
        """True for the APDCM'15 join shape: ``n-1`` sources, one sink."""
        sinks = self.sinks()
        if len(sinks) != 1:
            return False
        sink = sinks[0]
        others = [v for v in self.graph if v != sink]
        return all(
            list(self.graph.successors(v)) == [sink] for v in others
        ) and self.graph.in_degree(sink) == len(others)

    # ------------------------------------------------------------------
    # serialisation to a chain
    # ------------------------------------------------------------------
    def topological_orders(self) -> Iterable[list[Hashable]]:
        """All topological orders (exponential; small DAGs only)."""
        return self.graph.all_topological_sorts()

    def check_order(self, order: Sequence[Hashable]) -> None:
        """Raise :class:`InvalidChainError` unless ``order`` lists every
        task exactly once, each after its predecessors."""
        if len(order) != self.n or set(order) != set(self.graph.nodes):
            raise InvalidChainError("order must contain every task exactly once")
        seen: set[Hashable] = set()
        for v in order:
            for u in self.graph.predecessors(v):
                if u not in seen:
                    raise InvalidChainError(f"order violates precedence {u!r} -> {v!r}")
            seen.add(v)

    def serialise(
        self, order: list[Hashable] | None = None
    ) -> tuple[list[Hashable], TaskChain]:
        """Serialise the DAG into a :class:`TaskChain`.

        Because every task uses the whole platform, any topological order is
        a valid execution; a chain schedule protecting task ``i`` of the
        serialisation protects the cumulative state of the first ``i``
        tasks, which is exactly the data a crash would destroy.

        Parameters
        ----------
        order:
            Explicit topological order; validated.  Default: deterministic
            topological sort tie-broken by the numeric-aware
            :func:`canonical_node_key` (so ``t2`` precedes ``t10``).

        Returns
        -------
        (order, chain):
            The order used and the weight chain in that order.
        """
        if order is None:
            order = self.graph.canonical_sort()
        else:
            self.check_order(order)
        chain = TaskChain(
            [self.weight(v) for v in order], name=f"{self.name}-serialised"
        )
        return order, chain

    # ------------------------------------------------------------------
    # serialization (CLI / JSON round-trip)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-safe document: name, per-task weights, edge list.

        Heterogeneous DAGs additionally carry a ``"cost_multipliers"``
        mapping; homogeneous ones omit it so PR-4-era documents stay
        byte-identical.
        """
        doc = {
            "name": self.name,
            "tasks": {str(v): self.weight(v) for v in self.graph},
            "edges": [[str(u), str(v)] for u, v in self.graph.edges],
        }
        if self.has_heterogeneous_costs():
            doc["cost_multipliers"] = {
                str(v): self.cost_multiplier(v) for v in self.graph
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "WorkflowDAG":
        """Inverse of :meth:`as_dict` (task names become strings)."""
        try:
            tasks = doc["tasks"]
            edges = [(u, v) for u, v in doc["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidChainError(
                f"workflow document needs 'tasks' and 'edges': {exc}"
            ) from None
        return cls(
            tasks,
            edges,
            name=str(doc.get("name", "")),
            cost_multipliers=doc.get("cost_multipliers"),
        )

    def __repr__(self) -> str:
        return (
            f"WorkflowDAG({self.name!r}, n={self.n}, "
            f"edges={len(self.graph.edges)})"
        )
