"""Product Markov chains of a POMDP under a finite-memory strategy.

Fixing a finite-memory strategy sigma = (sigma_n, sigma_u, M, m0) in a POMDP
induces a finite Markov chain on S x M: first an action is sampled from
sigma_n(m), then a successor state from delta(s, a), then the new memory
from sigma_u(m, obs(s'), a).  Qualitative questions about the strategy
reduce to graph questions about this chain:

* a parity/Muller objective holds almost-surely iff every bottom SCC
  (recurrent class) reachable from (s0, m0) satisfies it, and with positive
  probability iff some reachable bottom SCC does;
* the recurrence summaries SetRec/BoolRec tabulate, for every pair (s, m)
  of the *full* product graph, the colour sets of the recurrent classes
  reachable from (s, m) and whether (s, m) itself is recurrent.

Everything here reads supports only, through the strategy's support table
(``strategy.supports``); weights never matter for these questions.
Internally a pair (s, m) is the integer ``s * |M| + m`` over state and
memory indices, so integer order is (state index, memory index) order.
Each call compiles the strategy's table against the model's
``Pomdp.index_supports`` into one successor function on those integers,
and one iterative Tarjan condensation walks the pairs as it first
reaches them, keeping its per-pair tables (visit index, low link,
component) in arrays indexed by pair id, for chains of every size.
Names are made only on reading ``ProductChain.initial``, ``nodes``,
``succ``, ``bottom_sccs()`` or ``RecFunctions.set_rec``/``bool_rec``, in
``dump_chain`` and in ``full_product_graph``'s result; the projection
reads recurrence summaries over pair ids.  The evaluation rules are
written once, over the colour sets of the recurrent classes (``_wins``,
after ``_require_colours`` on the reached states): ``evaluate_qualitative``
feeds them a built chain's bottom components, and the oracle the bottom
classes it finds on bit sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Mapping, Sequence

from .model import (MULLER, PARITY, ContractError, Objective, Pomdp,
                    StructuralError, WinningMode, objective_as_parity)

Node = tuple[str, str]  # (state, memory)
Graph = dict[int, tuple[int, ...]]  # pair id -> sorted successor ids

# Tuples are built from lists, not iterators: tuple() shrinks what it built
# from an iterator, and CPython's per-size free lists then kept enough such
# tuples to add 2 MB (10%) to the peak RSS of the ``oracle_sweep`` benchmark.


def validate_strategy(pomdp: Pomdp, strategy) -> list[str]:
    """Report references in a strategy that do not exist in the model.

    Here and below a strategy is anything exposing ``supports``, its
    support table (``strategy.SupportStrategy``): ``memories``,
    ``initial``, ``action_support`` (memory -> actions) and
    ``update_support`` ((memory, observation, action) -> memories).
    """
    table = strategy.supports
    problems: list[str] = []
    memories = set(table.memories)
    actions = set(pomdp.actions)
    observations = set(pomdp.observations)
    if len(memories) != len(table.memories):
        problems.append("duplicate memory names")
    if table.initial not in memories:
        problems.append(f"initial memory {table.initial!r} is not declared")
    for m, acts in table.action_support.items():
        if m not in memories:
            problems.append(f"action selection for unknown memory {m!r}")
        for a in sorted(acts):
            if a not in actions:
                problems.append(f"memory {m!r} selects unknown action {a!r}")
    for (m, o, a), succs in table.update_support.items():
        if m not in memories:
            problems.append(f"memory update for unknown memory {m!r}")
        if o not in observations:
            problems.append(f"memory update of {m!r} on unknown observation {o!r}")
        if a not in actions:
            problems.append(f"memory update of {m!r} on unknown action {a!r}")
        for m2 in sorted(succs):
            if m2 not in memories:
                problems.append(f"memory update of {m!r} targets unknown memory {m2!r}")
    return problems


def _compile(pomdp: Pomdp, table
             ) -> tuple[int, Callable[[int], tuple[int, ...]], int]:
    """The initial pair id, the successor function of the product chain
    and the number of pair ids, |S| * |M|.

    Every name in the support table is looked up here, each distinct
    target row once; a failed lookup raises ``StructuralError`` worded by
    ``validate_strategy``.  Only a (memory, action) that the table has
    update keys for gets a lane, its target memories by observation
    index; ``plays[m]`` pairs each action memory m selects with its lane.
    Actions the strategy selects but that are unavailable at the current
    observation contribute no edges (they cannot be played there; this
    only matters for junk pairs of the full product graph).
    """
    obs, moves = pomdp.index_supports
    n_mem, n_obs, n_act = (len(table.memories), len(pomdp.observations),
                           len(pomdp.actions))
    mem = {m: i for i, m in enumerate(table.memories)}
    aidx, oidx = pomdp.action_index, pomdp.obs_index
    s0 = pomdp.state_index[pomdp.initial_state]
    lanes: list[list[tuple[int, ...]] | None] = [None] * (n_mem * n_act)
    plays: list[list[tuple[int, list[tuple[int, ...]]]]] = [[]] * n_mem
    ids: dict[tuple[str, ...], tuple[int, ...]] = {}  # per distinct row
    try:
        if len(mem) != n_mem:  # duplicate memory names
            raise KeyError(table.memories)
        initial = s0 * n_mem + mem[table.initial]
        for (m, o, a), targets in table.update_support.items():
            row = ids.get(targets)
            if row is None:
                row = ids[targets] = tuple([mem[t] for t in targets])
            lane = lanes[key := mem[m] * n_act + aidx[a]]
            if lane is None:
                lane = lanes[key] = [()] * n_obs
            lane[oidx[o]] = row
        for m, names in table.action_support.items():
            mi = mem[m]
            plays[mi] = [(a, lane) for a in map(aidx.__getitem__, names)
                         if (lane := lanes[mi * n_act + a]) is not None]
    except KeyError:
        raise StructuralError(
            "; ".join(validate_strategy(pomdp, table))) from None

    def successors(node: int) -> tuple[int, ...]:
        s, m = divmod(node, n_mem)
        row = moves[s]
        out: set[int] = set()
        for a, lane in plays[m]:
            for t in row[a]:
                base = t * n_mem
                for m2 in lane[obs[t]]:
                    out.add(base + m2)
        return tuple(sorted(out))

    return initial, successors, len(obs) * n_mem


def _condense(successors: Callable[[int], tuple[int, ...]], roots: Iterable[int],
              size: int) -> tuple[Graph, list[tuple[int, ...]], list[int], list[bool]]:
    """Walk the pairs reachable from ``roots`` and condense them.

    One iterative Tarjan pass over pair ids below ``size``, which calls
    ``successors`` once per pair as it first reaches it; the per-pair
    tables are arrays indexed by pair id, -1 where unset.  Returns the
    successor map of every pair reached; the components, successors
    first; each pair's component index (-1 if unreached); and which
    components are bottom (recurrent classes).
    """
    graph: Graph = {}
    index, low, comp_of = [-1] * size, [-1] * size, [-1] * size
    comps: list[tuple[int, ...]] = []
    is_bottom: list[bool] = []
    stack: list[int] = []
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = len(graph)
        stack.append(root)
        graph[root] = nxt = successors(root)
        work = [(root, iter(nxt))]
        while work:
            node, children = work[-1]
            for child in children:
                if index[child] < 0:
                    index[child] = low[child] = len(graph)
                    stack.append(child)
                    graph[child] = nxt = successors(child)
                    work.append((child, iter(nxt)))
                    break
                if comp_of[child] < 0 and index[child] < low[node]:
                    low[node] = index[child]  # child is still on the stack
            else:
                work.pop()
                if work and low[node] < low[parent := work[-1][0]]:
                    low[parent] = low[node]
                if low[node] == index[node]:
                    ci = len(comps)
                    comp = []
                    while True:
                        n = stack.pop()
                        comp_of[n] = ci
                        comp.append(n)
                        if n == node:
                            break
                    comps.append(tuple(comp))
                    is_bottom.append(
                        all([comp_of[t] == ci for n in comp for t in graph[n]])
                        if comp[1:] else graph[node] in ((), (node,)))
    return graph, comps, comp_of, is_bottom


def _namer(pomdp: Pomdp, memories: Sequence[str]) -> Callable[[int], Node]:
    """The (state, memory) name of each pair id ``s * |M| + m``."""
    states, n_mem = pomdp.states, len(memories)
    return lambda n: (states[n // n_mem], memories[n % n_mem])


@dataclass
class ProductChain:
    """Support digraph of the product chain, restricted to the reachable part.

    Kept over pair ids: ``_graph`` maps each pair reached from ``_initial``
    to its sorted successors, ``_bottoms`` lists the recurrent classes.
    ``initial``, ``nodes`` (sorted by (state index, memory index)) and
    ``succ`` (each node's equally sorted successors) name them on reading.
    """

    pomdp: Pomdp
    memories: tuple[str, ...]
    _initial: int = field(repr=False)
    _graph: Graph = field(repr=False)
    _bottoms: list[list[int]] = field(repr=False)

    @cached_property
    def initial(self) -> Node:
        return _namer(self.pomdp, self.memories)(self._initial)

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        name = _namer(self.pomdp, self.memories)
        return tuple([name(n) for n in sorted(self._graph)])

    @cached_property
    def succ(self) -> dict[Node, tuple[Node, ...]]:
        name = _namer(self.pomdp, self.memories)
        return {name(n): tuple([name(t) for t in ts])
                for n, ts in self._graph.items()}

    @property
    def counts(self) -> tuple[int, int]:
        """The number of reached pairs and of recurrent classes, unnamed."""
        return len(self._graph), len(self._bottoms)

    def bottom_sccs(self) -> tuple[tuple[Node, ...], ...]:
        """Recurrent classes: bottom SCCs of the reachable support digraph.

        Deterministic order: classes sorted by their least node in
        (state index, memory index) order, members likewise sorted.
        """
        name = _namer(self.pomdp, self.memories)
        return tuple([tuple([name(n) for n in comp]) for comp in self._bottoms])


def build_product_chain(pomdp: Pomdp, strategy) -> ProductChain:
    """Build the part of the product chain reachable from (s0, m0)."""
    table = strategy.supports
    initial, successors, size = _compile(pomdp, table)
    graph, comps, _, is_bottom = _condense(successors, (initial,), size)
    return ProductChain(
        pomdp=pomdp, memories=table.memories, _initial=initial, _graph=graph,
        _bottoms=sorted(sorted(comp) for comp in compress(comps, is_bottom)))


def full_product_graph(pomdp: Pomdp, strategy) -> dict[Node, tuple[Node, ...]]:
    """Successor map over all of S x M, not just the reachable part."""
    table = strategy.supports
    _, successors, size = _compile(pomdp, table)
    name = _namer(pomdp, table.memories)
    return {name(n): tuple([name(t) for t in successors(n)])
            for n in range(size)}


# -- qualitative evaluation --

def evaluable_objective(pomdp: Pomdp, objective: Objective
                        ) -> tuple[Pomdp, Objective]:
    """The model and objective a chain evaluation reads.

    Parity and Muller pass through; the other kinds are rewritten into
    parity by ``objective_as_parity``.
    """
    if objective.kind in (PARITY, MULLER):
        return pomdp, objective
    return objective_as_parity(pomdp, objective)


def objective_colors(objective: Objective) -> Mapping[str, int]:
    """The colour map a chain evaluation reads: priorities or Muller colours.

    The objective's own cached map, not a copy: read it, do not mutate it.
    """
    if objective.kind == PARITY:
        return objective.priority_map
    if objective.kind == MULLER:
        return objective.color_map
    raise ContractError(
        f"chain evaluation needs a parity or Muller objective, got {objective.kind}")


def _state_colours(pomdp: Pomdp, objective: Objective) -> list[int | None]:
    """The colour of every state, by state index; None where there is none."""
    return list(map(objective_colors(objective).get, pomdp.states))


def _require_colours(pomdp: Pomdp, colour: Sequence[int | None],
                     pairs: Iterable[int], n_mem: int) -> None:
    """Raise ``StructuralError`` naming the uncoloured states of ``pairs``."""
    if None in colour and (missing := sorted(
            {pomdp.states[n // n_mem] for n in pairs if colour[n // n_mem] is None})):
        raise StructuralError(
            f"objective assigns nothing to states: {', '.join(missing)}")


def _wins(classes: Iterable[frozenset[int] | None], objective: Objective,
          mode: WinningMode) -> bool:
    """The evaluation rules, on the colour sets of a chain's recurrent classes
    (None: a single pair with no successor, a stopped play, never good).

    Almost-sure: every class satisfies the objective (its minimal priority
    is even / its colour set is accepting).  Positive: at least one does.
    The caller first checks the reached states' colours (``_require_colours``).
    """
    parity = objective.kind == PARITY
    good = (seen is not None and (min(seen) % 2 == 0 if parity
                                  else seen in objective.family)
            for seen in classes)
    return all(good) if mode == WinningMode.ALMOST_SURE else any(good)


def evaluate_qualitative(chain: ProductChain, objective: Objective,
                         mode: WinningMode) -> bool:
    """Does the chained strategy win the objective in the given mode?"""
    n_mem, graph = len(chain.memories), chain._graph
    colour = _state_colours(chain.pomdp, objective)
    _require_colours(chain.pomdp, colour, graph, n_mem)
    return _wins((frozenset([colour[n // n_mem] for n in comp])
                  if graph[comp[0]] else None for comp in chain._bottoms),
                 objective, mode)


# -- recurrence summaries --

@dataclass
class RecFunctions:
    """SetRec / BoolRec over the full product graph, kept over pair ids.

    ``comp_of`` is the condensation's component array by pair id:
    ``comp_of[s * |M| + m]`` is the component of the pair (s, m), and
    every pair of S x M has one.  ``reach[c]`` holds the colour sets of
    the recurrent classes reachable from c, and ``bottom[c]`` whether c
    is one (a single pair with no successor, where the strategy stops,
    counts with the empty colour set, so a stopped memory never shares a
    summary with a live one).  ``set_rec`` and ``bool_rec`` (1 iff the
    pair is recurrent, which forces SetRec to its class's colour set
    alone) name them per memory and state on first reading.
    """

    pomdp: Pomdp
    memories: tuple[str, ...]
    comp_of: list[int] = field(repr=False)
    reach: list[frozenset[frozenset[int]]] = field(repr=False)
    bottom: list[bool] = field(repr=False)

    def _by_pair(self, value: Sequence) -> dict:  # memory -> state -> value
        n_mem, states = len(self.memories), self.pomdp.states
        return {m: {s: value[self.comp_of[si * n_mem + mi]]
                    for si, s in enumerate(states)}
                for mi, m in enumerate(self.memories)}

    @cached_property
    def set_rec(self) -> dict[str, dict[str, frozenset[frozenset[int]]]]:
        return self._by_pair(self.reach)

    @cached_property
    def bool_rec(self) -> dict[str, dict[str, int]]:
        return self._by_pair([int(b) for b in self.bottom])


def compute_rec_functions(pomdp: Pomdp, strategy,
                          colors: Mapping[str, int]) -> RecFunctions:
    """Condense every pair (s, m) of S x M, once the table's names and
    the colours are checked, and summarise each component."""
    table = strategy.supports
    n_mem = len(table.memories)
    _, successors, size = _compile(pomdp, table)
    if missing := sorted(set(pomdp.states) - set(colors)):
        raise StructuralError(f"no colour for states: {', '.join(missing)}")
    colour = [colors[s] for s in pomdp.states]
    graph, comps, comp_of, is_bottom = _condense(successors, range(size), size)
    # components arrive successors-first, so one pass suffices
    reach: list[frozenset[frozenset[int]]] = []
    for ci, comp in enumerate(comps):
        got: set[frozenset[int]] = set()
        if is_bottom[ci]:
            got.add(frozenset(colour[n // n_mem] for n in comp)
                    if graph[comp[0]] else frozenset())
        for n in comp:
            for t in graph[n]:
                tc = comp_of[t]
                if tc != ci:
                    got |= reach[tc]
        reach.append(frozenset(got))
    return RecFunctions(pomdp=pomdp, memories=table.memories, comp_of=comp_of,
                        reach=reach, bottom=is_bottom)


def dump_chain(chain: ProductChain) -> str:
    """Plain-text dump of the chain: edges then bottom SCCs, stable order."""
    lines = [f"initial: ({chain.initial[0]}, {chain.initial[1]})",
             f"nodes: {len(chain.nodes)}"]
    for node in chain.nodes:
        targets = " ".join(f"({s}, {m})" for s, m in chain.succ[node])
        lines.append(f"({node[0]}, {node[1]}) -> {targets}")
    for i, comp in enumerate(chain.bottom_sccs()):
        members = " ".join(f"({s}, {m})" for s, m in comp)
        lines.append(f"bottom scc {i}: {members}")
    return "\n".join(lines) + "\n"
