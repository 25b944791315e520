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
and one Tarjan condensation walks the pairs as it first reaches them.
Names appear only in ``ProductChain.nodes``, ``succ`` and
``bottom_sccs()``, in ``dump_chain`` and in the result of
``full_product_graph``.  The evaluation rules are written once, over pair
ids (``_wins``): ``evaluate_qualitative`` applies them to a built chain,
and the oracle to the chains it walks for its unnamed candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _compile(pomdp: Pomdp, table) -> tuple[int, Callable[[int], tuple[int, ...]]]:
    """The initial pair id and the successor function of the product chain.

    Every name in the support table is looked up here; a failed lookup
    raises ``StructuralError`` worded by ``validate_strategy``.  Actions
    the strategy selects but that are unavailable at the current
    observation contribute no edges (they cannot be played there; this
    only matters for junk pairs of the full product graph).
    """
    obs, moves = pomdp.index_supports
    n_mem, n_obs, n_act = (len(table.memories), len(pomdp.observations),
                           len(pomdp.actions))
    mem = {m: i for i, m in enumerate(table.memories)}
    aidx, oidx = pomdp.action_index, pomdp.obs_index
    s0 = pomdp.state_index[pomdp.initial_state]
    acts: list[tuple[int, ...]] = [()] * n_mem
    update: list[tuple[int, ...]] = [()] * (n_mem * n_obs * n_act)
    try:
        if len(mem) != n_mem:  # duplicate memory names
            raise KeyError(table.memories)
        initial = s0 * n_mem + mem[table.initial]
        for m, names in table.action_support.items():
            acts[mem[m]] = tuple([aidx[a] for a in names])
        for (m, o, a), targets in table.update_support.items():
            update[(mem[m] * n_obs + oidx[o]) * n_act + aidx[a]] = tuple([
                mem[t] for t in targets])
    except KeyError:
        raise StructuralError(
            "; ".join(validate_strategy(pomdp, table))) from None

    def successors(node: int) -> tuple[int, ...]:
        s, m = divmod(node, n_mem)
        row = moves[s]
        out: set[int] = set()
        for a in acts[m]:
            for t in row[a]:
                base = t * n_mem
                for m2 in update[(m * n_obs + obs[t]) * n_act + a]:
                    out.add(base + m2)
        return tuple(sorted(out))

    return initial, successors


def _condense(successors: Callable[[int], tuple[int, ...]],
              roots: Iterable[int]) -> tuple[Graph, list[tuple[int, ...]],
                                             dict[int, int], list[bool]]:
    """Walk the pairs reachable from ``roots`` and condense them.

    One iterative Tarjan pass, which calls ``successors`` once per pair
    as it first reaches it.  Returns the successor map of every pair
    reached; the components, successors first; each pair's component
    index; and which components are bottom (recurrent classes).
    """
    graph: Graph = {}
    index: dict[int, int] = {}
    low: dict[int, int] = {-1: -1}
    comp_of: dict[int, int] = {}
    comps: list[tuple[int, ...]] = []
    is_bottom: list[bool] = []
    stack: list[int] = []
    work = [(-1, iter(roots))]  # -1: a virtual pair whose successors are the roots
    while work:
        node, children = work[-1]
        for child in children:
            if child not in index:
                index[child] = low[child] = len(index)
                stack.append(child)
                graph[child] = nxt = successors(child)
                work.append((child, iter(nxt)))
                break
            if child not in comp_of and index[child] < low[node]:
                low[node] = index[child]  # child is still on the stack
        else:
            work.pop()
            if not work:
                break
            parent = work[-1][0]
            if low[node] < low[parent]:
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
                inside = set(comp)
                comps.append(tuple(comp))
                is_bottom.append(all(inside.issuperset(graph[n]) for n in comp))
    return graph, comps, comp_of, is_bottom


@dataclass
class ProductChain:
    """Support digraph of the product chain, restricted to the reachable part.

    ``nodes`` lists every (state, memory) pair reachable from the initial
    pair, sorted by (state index, memory index); ``succ`` maps each node to
    its deduplicated, equally-sorted successor tuple.  The same graph over
    pair ids, and its recurrent classes, are kept for evaluation.
    """

    pomdp: Pomdp
    memories: tuple[str, ...]
    initial: Node
    nodes: tuple[Node, ...]
    succ: dict[Node, tuple[Node, ...]]
    _graph: Graph = field(repr=False)
    _bottoms: list[list[int]] = field(repr=False)

    def bottom_sccs(self) -> tuple[tuple[Node, ...], ...]:
        """Recurrent classes: bottom SCCs of the reachable support digraph.

        Deterministic order: classes sorted by their least node in
        (state index, memory index) order, members likewise sorted.
        """
        states, memories = self.pomdp.states, self.memories
        n_mem = len(memories)
        return tuple([tuple([(states[n // n_mem], memories[n % n_mem])
                             for n in comp]) for comp in self._bottoms])


def build_product_chain(pomdp: Pomdp, strategy) -> ProductChain:
    """Build the part of the product chain reachable from (s0, m0)."""
    table = strategy.supports
    initial, successors = _compile(pomdp, table)
    graph, comps, _, is_bottom = _condense(successors, (initial,))
    name = [(s, m) for s in pomdp.states for m in table.memories].__getitem__
    return ProductChain(
        pomdp=pomdp, memories=table.memories, initial=name(initial),
        nodes=tuple([name(n) for n in sorted(graph)]),
        succ={name(n): tuple([name(t) for t in ts]) for n, ts in graph.items()},
        _graph=graph,
        _bottoms=sorted(sorted(comp) for comp in compress(comps, is_bottom)))


def full_product_graph(pomdp: Pomdp, strategy) -> dict[Node, tuple[Node, ...]]:
    """Successor map over all of S x M, not just the reachable part."""
    table = strategy.supports
    _, successors = _compile(pomdp, table)
    graph = _condense(successors, range(len(pomdp.states) * len(table.memories)))[0]
    name = [(s, m) for s in pomdp.states for m in table.memories].__getitem__
    return {name(n): tuple([name(t) for t in ts])
            for n, ts in sorted(graph.items())}


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


def _class_good(seen: set[int], objective: Objective) -> bool:
    if objective.kind == PARITY:
        return min(seen) % 2 == 0
    return frozenset(seen) in objective.family


def _state_colours(pomdp: Pomdp, objective: Objective) -> list[int | None]:
    """The colour of every state, by state index; None where there is none."""
    colors = objective_colors(objective)
    return [colors.get(s) for s in pomdp.states]


def _wins(graph: Graph, bottoms: Iterable[Sequence[int]], n_mem: int,
          colour: Sequence[int | None], pomdp: Pomdp,
          objective: Objective, mode: WinningMode) -> bool:
    """The evaluation rules, on a product chain walked over pair ids.

    ``graph`` maps every reached pair to its successors and ``bottoms``
    lists the chain's recurrent classes; ``colour`` is ``_state_colours``.
    A reached state without a colour is a ``StructuralError``; an
    unreached one is not looked at.  Almost-sure: every recurrent class
    satisfies the objective (its minimal priority is even / its colour
    set is accepting).  Positive: at least one does.  A recurrent class
    that is a single pair with no successor is a play the strategy stops,
    never a good class.
    """
    if None in colour:
        missing = sorted({pomdp.states[n // n_mem] for n in graph
                          if colour[n // n_mem] is None})
        if missing:
            raise StructuralError(
                f"objective assigns nothing to states: {', '.join(missing)}")
    good = (bool(graph[comp[0]])
            and _class_good({colour[n // n_mem] for n in comp}, objective)
            for comp in bottoms)
    return all(good) if mode == WinningMode.ALMOST_SURE else any(good)


def evaluate_qualitative(chain: ProductChain, objective: Objective,
                         mode: WinningMode) -> bool:
    """Does the chained strategy win the objective in the given mode?

    The rules are ``_wins``'s, applied to the chain's reachable part.
    """
    return _wins(chain._graph, chain._bottoms, len(chain.memories),
                 _state_colours(chain.pomdp, objective), chain.pomdp,
                 objective, mode)


# -- recurrence summaries --

@dataclass
class RecFunctions:
    """SetRec / BoolRec tables over the full product graph.

    ``set_rec[m][s]`` is the set of colour sets of recurrent classes
    reachable from (s, m); ``bool_rec[m][s]`` is 1 iff (s, m) itself lies in
    a recurrent class.  BoolRec = 1 forces SetRec to be the singleton of the
    colour set of the class containing (s, m).  A class that is a single
    pair with no successor, where the strategy stops, counts with the empty
    colour set, so a stopped memory never shares a summary with a live one.
    """

    set_rec: dict[str, dict[str, frozenset[frozenset[int]]]]
    bool_rec: dict[str, dict[str, int]]


def compute_rec_functions(pomdp: Pomdp, strategy,
                          colors: Mapping[str, int]) -> RecFunctions:
    """Tabulate SetRec and BoolRec for every pair (s, m) of S x M."""
    table = strategy.supports
    n_mem = len(table.memories)
    _, successors = _compile(pomdp, table)
    graph, comps, comp_of, is_bottom = _condense(
        successors, range(len(pomdp.states) * n_mem))
    missing = sorted(set(pomdp.states) - set(colors))
    if missing:
        raise StructuralError(f"no colour for states: {', '.join(missing)}")
    colour = [colors[s] for s in pomdp.states]
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

    def by_pair(value):  # memory -> state -> value of the pair's component
        return {m: {s: value(comp_of[si * n_mem + mi])
                    for si, s in enumerate(pomdp.states)}
                for mi, m in enumerate(table.memories)}
    return RecFunctions(set_rec=by_pair(reach.__getitem__),
                        bool_rec=by_pair(lambda ci: int(is_bottom[ci])))


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
