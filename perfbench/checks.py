"""Definition-level checks of fair-biclique result sets.

Written from the paper's definitions alone, so that a fault shared by the
program's own helpers (``repro.core.fairset``, ``repro.core.bruteforce``)
cannot hide here. Every check runs on the *generated* graph, before any
pruning, because maximality is a property of the input graph.

A fair side holds every attribute value of the full domain at least ``k``
times, with the largest and smallest counts at most ``delta`` apart
(Definition 11). ``R`` is a maximal fair subset of ``S`` when ``R`` is fair,
``R ⊆ S`` and no fair ``R'`` with ``R ⊊ R' ⊆ S`` exists; that is a question
about count vectors only, since vertices of one attribute value are
interchangeable for fairness.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """The benchmark's own copy of a generated graph: adjacency and attributes."""

    adj_u: dict[int, frozenset[int]]
    adj_v: dict[int, frozenset[int]]
    u_val: dict[int, int]
    v_val: dict[int, int]
    attrs_u: tuple[int, ...]
    attrs_v: tuple[int, ...]

    @staticmethod
    def from_edges(edges, u_val, v_val, attrs_u, attrs_v) -> "Graph":
        adj_u = {u: set() for u in u_val}
        adj_v = {v: set() for v in v_val}
        for u, v in edges:
            adj_u[u].add(v)
            adj_v[v].add(u)
        return Graph(
            {u: frozenset(s) for u, s in adj_u.items()},
            {v: frozenset(s) for v, s in adj_v.items()},
            dict(u_val), dict(v_val), tuple(attrs_u), tuple(attrs_v),
        )


def counts(side, val, domain) -> tuple[int, ...]:
    c = Counter(val[x] for x in side)
    return tuple(c.get(a, 0) for a in domain)


def is_fair(cnt, k: int, delta: int) -> bool:
    return min(cnt) >= k and max(cnt) - min(cnt) <= delta


def is_maximal_fair(sub, sup, k: int, delta: int) -> bool:
    """Is a set with counts ``sub`` a maximal fair subset of one with counts ``sup``?

    A fair strict superset exists iff some window ``[m, m + delta]`` meets
    every interval ``[sub_a, sup_a]`` and lets at least one count grow; such
    a window has ``max(sub) - delta <= m <= min(sup)``.
    """
    if not is_fair(sub, k, delta) or any(s > t for s, t in zip(sub, sup)):
        return False
    for m in range(max(0, max(sub) - delta), min(sup) + 1):
        lo = [max(s, m) for s in sub]
        hi = [min(t, m + delta) for t in sup]
        if all(a <= b for a, b in zip(lo, hi)) and any(b > s for b, s in zip(hi, sub)):
            return False
    return True


def common(adj, side) -> frozenset[int]:
    it = iter(side)
    acc = set(adj[next(it)])
    for x in it:
        acc &= adj[x]
    return frozenset(acc)


class Checker:
    """Definition-level checks of results ``(l, r)`` of one model on one graph.

    Results of one query share sides (every BSFBC's ``R`` is the ``R`` of an
    SSFBC) and count vectors, so ``N(R)`` and maximality verdicts are cached.
    """

    def __init__(self, g: Graph, model: str, alpha: int, beta: int, delta: int):
        self.g, self.model = g, model
        self.alpha, self.beta, self.delta = alpha, beta, delta
        self._n_r: dict[frozenset[int], tuple[frozenset[int], tuple[int, ...]]] = {}
        self._maximal: dict[tuple, bool] = {}

    def _is_maximal_fair(self, sub, sup, k: int) -> bool:
        key = (sub, sup, k)
        if key not in self._maximal:
            self._maximal[key] = is_maximal_fair(sub, sup, k, self.delta)
        return self._maximal[key]

    def violation(self, l: frozenset[int], r: frozenset[int]) -> str | None:
        """The first definition a result breaks, or ``None``."""
        g = self.g
        if not l or not r:
            return "empty side"
        if not (l <= g.adj_u.keys() and r <= g.adj_v.keys()):
            return "unknown vertex"
        n_l = common(g.adj_u, l)
        if not r <= n_l:
            return "L x R holds a non-edge"
        if not self._is_maximal_fair(counts(r, g.v_val, g.attrs_v),
                                     counts(n_l, g.v_val, g.attrs_v), self.beta):
            return "R is not a maximal fair subset of N(L)"
        if r not in self._n_r:
            n_r = common(g.adj_v, r)
            self._n_r[r] = n_r, counts(n_r, g.u_val, g.attrs_u)
        n_r, n_r_counts = self._n_r[r]
        if self.model == "ssfbc":
            if l != n_r:
                return "L != N(R)"
            if len(l) < self.alpha:
                return "|L| < alpha"
        elif not self._is_maximal_fair(counts(l, g.u_val, g.attrs_u), n_r_counts, self.alpha):
            return "L is not a maximal fair subset of N(R)"
        return None

    def check(self, results) -> list[str]:
        """All definition-level failures of a result list (empty when it is correct)."""
        errors = []
        n_distinct = len({(frozenset(l), frozenset(r)) for l, r in results})
        if n_distinct != len(results):
            errors.append(f"{len(results) - n_distinct} duplicate results")
        for l, r in results:
            why = self.violation(frozenset(l), frozenset(r))
            if why:
                errors.append(f"{why}: L={sorted(l)} R={sorted(r)}")
                if len(errors) >= 5:
                    break
        return errors


def digest(results) -> tuple[int, int]:
    """Order-free fingerprint of a result list: (length, sum of result hashes).

    Hashes of frozensets of ints do not depend on the process's hash seed.
    """
    return len(results), sum(hash((frozenset(l), frozenset(r))) for l, r in results) % 2**64


def self_test(checker: Checker, results) -> list[str]:
    """Show that the checks reject corrupted copies of a correct result set.

    Three mutations: one result dropped (caught by the set comparison), a
    non-maximal pair added and a fairness violation added (both caught by
    :meth:`Checker.violation`). Returns the mutations that were *not* caught.
    """
    if not results:
        return ["no results to mutate"]
    missed = []
    if digest(results[1:]) == digest(results):
        missed.append("dropped result")
    l, r = (frozenset(x) for x in results[0])
    # Removing one vertex leaves a pair that is either unfair or extendable.
    smaller = frozenset(sorted(r)[1:])
    if smaller and checker.violation(l, smaller) is None:
        missed.append("non-maximal pair")
    g = checker.g
    one_value = frozenset(v for v in r if g.v_val[v] != g.attrs_v[0])
    if one_value and checker.violation(l, one_value) is None:
        missed.append("fairness violation")
    return missed
