"""Finite-memory strategies and the projection machinery.

A finite-memory strategy is a pair of stochastic maps: action selection
(memory -> actions) and memory update ((memory, new observation, action) ->
memories), plus an initial memory.  Qualitative analyses read only its
support table (``SupportStrategy``), the one form in which the library
computes, returns and transforms strategies; weights
(``FiniteMemoryStrategy``) exist only in files and in callers' strategies.
Memories may optionally be annotated with a
``MemoryElement`` — a triple of a belief, a boolean-recurrence vector and
a set-recurrence vector — which is how strategies produced by the
projection and the solver carry their own explanation.

The projection collapses an arbitrary finite-memory strategy onto the
graph of triples (belief, BoolRec, SetRec): vertices whose recurrence
summaries agree are merged, and the projected strategy plays every move
of the merged memories.  The resulting strategy has boundedly many
memories (independent of the original memory count) and reaches recurrent
classes with exactly the same colour sets from the initial situation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .chain import compute_rec_functions
from .model import (MULLER, PARITY, ContractError, Objective, Pomdp,
                    StructuralError, exact_dist)


def uniform(items: Iterable) -> dict:
    """Uniform distribution over a non-empty collection, as exact fractions."""
    items = tuple(items)
    if not items:
        raise ContractError("uniform distribution over an empty collection")
    w = Fraction(1, len(items))
    return {x: w for x in items}


@dataclass(frozen=True)
class MemoryElement:
    """A belief plus recurrence summaries, the currency of projection.

    ``belief`` is the set of states the play may currently be in;
    ``brec`` the set of states s whose pair (s, m) is recurrent under the
    originating strategy; ``srec`` maps every state to the colour sets of
    the recurrent classes reachable from (s, m).  ``srec`` is stored as a
    name-sorted tuple of pairs so elements hash and compare structurally.
    """

    belief: frozenset[str]
    brec: frozenset[str]
    srec: tuple[tuple[str, frozenset[frozenset[int]]], ...]

    @classmethod
    def make(cls, belief: Iterable[str], brec: Iterable[str],
             srec: Mapping[str, Iterable[Iterable[int]]]) -> "MemoryElement":
        canon = tuple(sorted(
            (s, frozenset(frozenset(z) for z in zs)) for s, zs in srec.items()))
        return cls(belief=frozenset(belief), brec=frozenset(brec), srec=canon)

    @cached_property
    def srec_map(self) -> dict[str, frozenset[frozenset[int]]]:
        return dict(self.srec)


@dataclass
class SupportStrategy:
    """A finite-memory strategy described only by its supports.

    The one support table the chain and projection read, and the form
    every strategy the library makes has.  ``action_support`` maps a
    memory to the actions it may play and ``update_support`` maps
    (memory, observation, action) to the memories it may move to; a
    missing entry means empty support.  Tuples are name-sorted.
    ``elements`` optionally annotates memories with MemoryElements.
    ``to_strategy`` gives it uniform weights, the ones a written table
    carries; any weighting wins exactly the same qualitative objectives.
    """

    memories: tuple[str, ...]
    action_support: dict[str, tuple[str, ...]]
    update_support: dict[tuple[str, str, str], tuple[str, ...]]
    initial: str
    elements: dict[str, MemoryElement] = field(default_factory=dict)

    @property
    def supports(self) -> "SupportStrategy":
        return self

    def to_strategy(self) -> "FiniteMemoryStrategy":
        return FiniteMemoryStrategy.checked(
            self, {m: uniform(acts) for m, acts in self.action_support.items()},
            {key: uniform(ms) for key, ms in self.update_support.items()})


@dataclass
class FiniteMemoryStrategy:
    """A randomized finite-memory strategy with exact-rational weights.

    What a parsed file or a caller's randomized strategy is.
    ``action_select[m]`` is a distribution over actions, and
    ``memory_update[(m, obs, action)]`` a distribution over next memories.
    Missing entries mean empty support — such branches contribute no
    behaviour (they can only concern situations the strategy never faces).
    ``elements`` optionally annotates memories with MemoryElements.
    Strategies are not mutated after construction: ``supports`` is derived
    from the weights once, on first use, unless ``checked`` was handed it.
    """

    memories: tuple[str, ...]
    action_select: dict[str, dict[str, Fraction]]
    memory_update: dict[tuple[str, str, str], dict[str, Fraction]]
    initial_memory: str
    elements: dict[str, MemoryElement] = field(default_factory=dict)

    def __post_init__(self):
        self.memories = tuple(self.memories)
        self.action_select = {m: exact_dist(d, ("action selection", m))
                              for m, d in self.action_select.items()}
        self.memory_update = {k: exact_dist(d, ("memory update", k))
                              for k, d in self.memory_update.items()}

    @classmethod
    def checked(cls, table: SupportStrategy,
                action_select: dict[str, dict[str, Fraction]],
                memory_update: dict[tuple[str, str, str], dict[str, Fraction]]
                ) -> "FiniteMemoryStrategy":
        """The strategy of rows already known to be exact: every weight a
        positive ``Fraction``, and ``table`` their name-sorted supports, as
        the parser and ``SupportStrategy.to_strategy`` hand them over.
        Neither ``exact_dist`` nor the derivation of ``supports`` runs."""
        sigma = cls.__new__(cls)
        sigma.memories, sigma.initial_memory = table.memories, table.initial
        sigma.action_select, sigma.memory_update = action_select, memory_update
        sigma.elements, sigma.supports = table.elements, table
        return sigma

    @cached_property
    def supports(self) -> SupportStrategy:
        """Positive-weight entries of both maps, name-sorted; every key kept."""
        def support(dist):  # a Fraction's sign is its numerator's
            return tuple(sorted([x for x, w in dist.items() if w.numerator > 0]))
        return SupportStrategy(
            memories=self.memories,
            action_support={m: support(d) for m, d in self.action_select.items()},
            update_support={k: support(d) for k, d in self.memory_update.items()},
            initial=self.initial_memory, elements=self.elements)


def stationary_strategy(pomdp: Pomdp,
                        support: Iterable[str]) -> SupportStrategy:
    """Single-memory strategy playing a fixed action set."""
    support = tuple(sorted(support))
    unknown = sorted(set(support) - set(pomdp.actions))
    if unknown:
        raise StructuralError(f"unknown actions: {', '.join(unknown)}")
    return SupportStrategy(
        memories=("m",), action_support={"m": support},
        update_support={("m", o, a): ("m",)
                        for o in pomdp.observations for a in support},
        initial="m")


# -- projection graph --

@dataclass
class ProjectionGraph:
    """Graph over MemoryElements induced by a strategy's recurrence summaries.

    Vertices are the elements forward-reachable from the initial element
    ({s0}, BoolRec(m0), SetRec(m0)); ``edges[v][a]`` are the action-a
    successors.  A successor exists for every observation compatible with
    the belief's image (empty successor beliefs denote probability-zero
    observation branches and are omitted).
    """

    pomdp: Pomdp
    initial: MemoryElement
    vertices: tuple[MemoryElement, ...]
    edges: dict[MemoryElement, dict[str, tuple[MemoryElement, ...]]]


def build_projection_graph(pomdp: Pomdp, strategy,
                           colors: Mapping[str, int]) -> ProjectionGraph:
    """Build the projection graph of a strategy, lazily from the start vertex.

    Memories whose (BoolRec, SetRec) summaries coincide are merged: a
    vertex's outgoing edges are contributed by every matching memory.  A
    summary (per state index, the bottom flag and reach set of the pair's
    component) is interned as an id k, and a vertex is (belief, k), the
    belief a sorted tuple of state indices.  ``after[k][a][o]`` unions,
    once, the summary ids that the memories of summary k playing a update
    to on (o, a).  From (B, k) such a memory's a-edges lead to (B_o, k')
    for each part B_o of B's a-image (``Pomdp.index_supports``, empty if a
    is unavailable) and each k' its (o, a) row reaches.  The image does
    not depend on the memory, nor its rows on B, so the union of their
    edges is the image crossed with ``after[k][a]``, which reads each row
    once instead of at every vertex.  Sort keys are made once per summary.
    """
    rec = compute_rec_functions(pomdp, strategy, colors)
    table = strategy.supports
    states, n_mem = pomdp.states, len(table.memories)
    summaries: dict[tuple, int] = {}
    sid = {m: summaries.setdefault(tuple([(rec.bottom[c], rec.reach[c])
                                          for c in rec.comp_of[mi::n_mem]]),
                                   len(summaries))
           for mi, m in enumerate(table.memories)}
    after: list[dict[int, dict[int, set[int]]]] = [{} for _ in summaries]
    for (m, o, a), targets in table.update_support.items():
        if targets and a in table.action_support.get(m, ()):
            after[sid[m]].setdefault(pomdp.action_index[a], {}).setdefault(
                pomdp.obs_index[o], set()).update(map(sid.__getitem__, targets))
    obs, moves = pomdp.index_supports
    start = ((pomdp.state_index[pomdp.initial_state],), sid[table.initial])
    graph, frontier = {start: {}}, [start]  # vertex -> action -> successors
    while frontier:
        v = frontier.pop()
        for a, by_obs in after[v[1]].items():
            image: dict[int, set[int]] = {}
            for s in v[0]:
                for t in moves[s][a]:
                    image.setdefault(obs[t], set()).add(t)
            succ = {(tuple(sorted(image[o])), k)
                    for o in image.keys() & by_obs for k in by_obs[o]}
            if succ:
                graph[v][a] = succ
                for w in succ.difference(graph):
                    graph[w] = {}
                    frontier.append(w)
    by_name = sorted(range(len(states)), key=states.__getitem__)
    sort_key, parts = [], []  # by summary id
    for summary in summaries:
        brec = tuple([si for si, (bottom, _) in enumerate(summary) if bottom])
        sort_key.append((brec, [sorted(map(sorted, summary[si][1]))
                                for si in by_name]))
        parts.append((frozenset([states[si] for si in brec]),
                      tuple([(states[si], summary[si][1]) for si in by_name])))
    key = lambda v: (v[0], sort_key[v[1]])
    element = {v: MemoryElement(frozenset([states[s] for s in v[0]]), *parts[v[1]])
               for v in sorted(graph, key=key)}
    names = pomdp.actions
    edges = {e: {names[a]: tuple([element[w] for w in sorted(graph[v][a], key=key)])
                 for a in sorted(graph[v], key=names.__getitem__)}
             for v, e in element.items()}
    return ProjectionGraph(pomdp=pomdp, initial=element[start],
                           vertices=tuple(element.values()), edges=edges)


def project_strategy(pomdp: Pomdp, strategy,
                     colors: Mapping[str, int]) -> SupportStrategy:
    """Collapse a strategy onto its projection graph.

    The projected strategy's memories are the graph's vertices; it plays
    the actions labelling outgoing edges, and updates to the successors
    whose belief matches the received observation.  Memories carry their
    MemoryElement annotations.
    """
    pg = build_projection_graph(pomdp, strategy, colors)
    names = {v: f"v{i}" for i, v in enumerate(pg.vertices)}
    action_support = {names[v]: tuple(sorted(out))
                      for v, out in pg.edges.items() if out}
    update_support: dict[tuple[str, str, str], list[str]] = {}
    for v, out in pg.edges.items():
        for a, succs in out.items():
            for v2 in succs:
                o = pomdp.obs_map[next(iter(v2.belief))]
                update_support.setdefault((names[v], o, a), []).append(names[v2])
    return SupportStrategy(
        memories=tuple(names.values()), action_support=action_support,
        update_support={k: tuple(sorted(ms)) for k, ms in update_support.items()},
        initial=names[pg.initial], elements={nm: v for v, nm in names.items()})


def memory_bound(pomdp: Pomdp, objective: Objective) -> int:
    """Sufficient memory size for finite-memory winning strategies.

    Muller with d colours: 2^(2|S|) * (2^(2^d))^|S| (the projection-graph
    vertex count).  Parity with d priorities: 2^(3 d |S|).  The two-priority
    special cases (reach/safe/Buchi/co-Buchi) use the parity figure with
    d = 2.  Exact big integers.
    """
    n = len(pomdp.states)
    if objective.kind == MULLER:
        d = len(set(objective.color_map.values()))
        return 2 ** (2 * n) * (2 ** (2 ** d)) ** n
    if objective.kind == PARITY:
        d = objective.max_priority + 1
    else:
        d = 2
    return 2 ** (3 * d * n)
