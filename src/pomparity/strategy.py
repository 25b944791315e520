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
    ``to_strategy`` gives the table uniform weights when it is written,
    the one place weights are made; any weighting wins exactly the same
    qualitative objectives.
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
        return FiniteMemoryStrategy(
            memories=self.memories,
            action_select={m: uniform(acts)
                           for m, acts in self.action_support.items()},
            memory_update={key: uniform(ms)
                           for key, ms in self.update_support.items()},
            initial_memory=self.initial, elements=self.elements)


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
    from the weights once, on first use; ``to_strategy`` is the identity.
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

    @cached_property
    def supports(self) -> SupportStrategy:
        """Positive-weight entries of both maps, name-sorted; every key kept."""
        def support(dist):
            return tuple(sorted(x for x, w in dist.items() if w > 0))
        return SupportStrategy(
            memories=self.memories,
            action_support={m: support(d) for m, d in self.action_select.items()},
            update_support={k: support(d) for k, d in self.memory_update.items()},
            initial=self.initial_memory, elements=self.elements)

    def to_strategy(self) -> "FiniteMemoryStrategy":
        return self


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


def element_sort_key(pomdp: Pomdp, element: MemoryElement):
    """Total, deterministic order on elements (belief, brec, srec encoding)."""
    sidx = pomdp.state_index
    belief = tuple(sorted(sidx[s] for s in element.belief))
    brec = tuple(sorted(sidx[s] for s in element.brec))
    srec = tuple((s, tuple(sorted(tuple(sorted(z)) for z in zs)))
                 for s, zs in element.srec)
    return (belief, brec, srec)


def build_projection_graph(pomdp: Pomdp, strategy,
                           colors: Mapping[str, int]) -> ProjectionGraph:
    """Build the projection graph of a strategy, lazily from the start vertex.

    Memories whose (BoolRec, SetRec) summaries coincide are merged: a
    vertex's outgoing edges are contributed by every matching memory.  A
    vertex's belief image under an action, split by observation, is
    computed once, and each successor element is built once.
    """
    rec = compute_rec_functions(pomdp, strategy, colors)
    table = strategy.supports
    keys: dict[str, tuple] = {}
    reps: dict[tuple, list[str]] = {}
    for m in table.memories:
        brec = frozenset(s for s in pomdp.states if rec.bool_rec[m][s])
        srec = tuple(sorted((s, rec.set_rec[m][s]) for s in pomdp.states))
        key = (brec, srec)
        keys[m] = key
        reps.setdefault(key, []).append(m)
    built: dict[tuple[frozenset[str], tuple], MemoryElement] = {}
    frontier: list[MemoryElement] = []

    def vertex(belief: frozenset[str], key: tuple) -> MemoryElement:
        v = built.get((belief, key))
        if v is None:
            v = built[(belief, key)] = MemoryElement(belief, *key)
            frontier.append(v)
        return v

    sort_key = lambda v: element_sort_key(pomdp, v)
    obs_map = pomdp.obs_map
    initial = vertex(frozenset({pomdp.initial_state}), keys[table.initial])
    edges: dict[MemoryElement, dict[str, tuple[MemoryElement, ...]]] = {}
    while frontier:
        v = frontier.pop()
        out: dict[str, set[MemoryElement]] = {}
        split: dict[str, dict[str, frozenset[str]]] = {}
        avail = pomdp.available_at(obs_map[next(iter(v.belief))])
        for m in reps[(v.brec, v.srec)]:
            for a in table.action_support.get(m, ()):
                if a not in avail:
                    continue
                by_obs = split.get(a)
                if by_obs is None:
                    groups: dict[str, set[str]] = {}
                    for s in v.belief:
                        for t in pomdp.supp(s, a):
                            groups.setdefault(obs_map[t], set()).add(t)
                    by_obs = split[a] = {o: frozenset(ts)
                                         for o, ts in groups.items()}
                for o, succ_belief in by_obs.items():
                    for m2 in table.update_support.get((m, o, a), ()):
                        out.setdefault(a, set()).add(vertex(succ_belief, keys[m2]))
        edges[v] = {a: tuple(sorted(vs, key=sort_key))
                    for a, vs in sorted(out.items())}
    vertices = tuple(sorted(built.values(), key=sort_key))
    return ProjectionGraph(pomdp=pomdp, initial=initial, vertices=vertices,
                           edges=edges)


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
    action_support: dict[str, tuple[str, ...]] = {}
    update_support: dict[tuple[str, str, str], tuple[str, ...]] = {}
    for v, nm in names.items():
        per_action = pg.edges.get(v, {})
        if per_action:
            action_support[nm] = tuple(sorted(per_action))
        for a, succs in per_action.items():
            by_obs: dict[str, list[str]] = {}
            for v2 in succs:
                o = pomdp.obs_map[next(iter(v2.belief))]
                by_obs.setdefault(o, []).append(names[v2])
            for o, targets in by_obs.items():
                update_support[(nm, o, a)] = tuple(sorted(targets))
    return SupportStrategy(
        memories=tuple(names.values()), action_support=action_support,
        update_support=update_support, initial=names[pg.initial],
        elements={nm: v for v, nm in names.items()})


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
