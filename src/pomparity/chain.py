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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import (MULLER, PARITY, ContractError, Objective, Pomdp,
                    StructuralError, WinningMode, objective_as_parity)

Node = tuple[str, str]  # (state, memory)


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


def _checked_table(pomdp: Pomdp, strategy):
    """The strategy's support table, or StructuralError naming what is unknown."""
    problems = validate_strategy(pomdp, strategy)
    if problems:
        raise StructuralError("; ".join(problems))
    return strategy.supports


def _product_successors(pomdp: Pomdp, table, node: Node,
                        state_index: Mapping[str, int],
                        memory_index: Mapping[str, int]) -> tuple[Node, ...]:
    """One-step successors of (state, memory), deduplicated and ordered.

    Actions the strategy selects but that are unavailable at the current
    observation contribute no edges (they cannot be played there; this only
    matters for junk pairs of the full product graph).
    """
    s, m = node
    obs_map = pomdp.obs_map
    available = pomdp.available_at(obs_map[s])
    update = table.update_support
    out: set[Node] = set()
    for a in table.action_support.get(m, ()):
        if a not in available:
            continue
        for s2 in pomdp.supp(s, a):
            for m2 in update.get((m, obs_map[s2], a), ()):
                out.add((s2, m2))
    return tuple(sorted(out, key=lambda n: (state_index[n[0]], memory_index[n[1]])))


@dataclass
class ProductChain:
    """Support digraph of the product chain, restricted to the reachable part.

    ``nodes`` lists every (state, memory) pair reachable from the initial
    pair, sorted by (state index, memory index); ``succ`` maps each node to
    its deduplicated, equally-sorted successor tuple.
    """

    pomdp: Pomdp
    memories: tuple[str, ...]
    initial: Node
    nodes: tuple[Node, ...]
    succ: dict[Node, tuple[Node, ...]]

    @property
    def memory_index(self) -> dict[str, int]:
        return {m: i for i, m in enumerate(self.memories)}

    def bottom_sccs(self) -> tuple[tuple[Node, ...], ...]:
        """Recurrent classes: bottom SCCs of the reachable support digraph.

        Deterministic order: classes sorted by their least node in
        (state index, memory index) order, members likewise sorted.
        """
        if not hasattr(self, "_bottom"):
            sidx, midx = self.pomdp.state_index, self.memory_index
            key = lambda n: (sidx[n[0]], midx[n[1]])
            comps, _, is_bottom = _condense(self.nodes, self.succ)
            bottoms = [tuple(sorted(comp, key=key))
                       for comp, bottom in zip(comps, is_bottom) if bottom]
            bottoms.sort(key=lambda comp: key(comp[0]))
            self._bottom = tuple(bottoms)
        return self._bottom


def build_product_chain(pomdp: Pomdp, strategy) -> ProductChain:
    """Build the part of the product chain reachable from (s0, m0)."""
    table = _checked_table(pomdp, strategy)
    state_index = pomdp.state_index
    memories = table.memories
    memory_index = {m: i for i, m in enumerate(memories)}
    initial: Node = (pomdp.initial_state, table.initial)
    succ: dict[Node, tuple[Node, ...]] = {}
    frontier = [initial]
    seen = {initial}
    while frontier:
        node = frontier.pop()
        nxt = _product_successors(pomdp, table, node, state_index, memory_index)
        succ[node] = nxt
        for n in nxt:
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    nodes = tuple(sorted(seen, key=lambda n: (state_index[n[0]], memory_index[n[1]])))
    return ProductChain(pomdp=pomdp, memories=memories, initial=initial,
                        nodes=nodes, succ=succ)


def full_product_graph(pomdp: Pomdp, strategy) -> dict[Node, tuple[Node, ...]]:
    """Successor map over all of S x M, not just the reachable part."""
    table = strategy.supports
    state_index = pomdp.state_index
    memory_index = {m: i for i, m in enumerate(table.memories)}
    succ: dict[Node, tuple[Node, ...]] = {}
    for s in pomdp.states:
        for m in table.memories:
            node = (s, m)
            succ[node] = _product_successors(pomdp, table, node,
                                             state_index, memory_index)
    return succ


# -- strongly connected components (iterative Tarjan) --

def _sccs(nodes: Iterable[Node], succ: Mapping[Node, tuple[Node, ...]]) -> list[list[Node]]:
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    out: list[list[Node]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            children = succ.get(node, ())
            advanced = False
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
        # root finished
    return out


def _condense(nodes: Iterable[Node], succ: Mapping[Node, tuple[Node, ...]]
              ) -> tuple[list[list[Node]], dict[Node, int], list[bool]]:
    """Tarjan condensation of a support digraph.

    Returns the components, successors first; each node's component index;
    and which components are bottom (recurrent classes).
    """
    comps = _sccs(nodes, succ)
    comp_of = {n: ci for ci, comp in enumerate(comps) for n in comp}
    is_bottom = [all(comp_of[t] == ci for n in comp for t in succ.get(n, ()))
                 for ci, comp in enumerate(comps)]
    return comps, comp_of, is_bottom


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


def objective_colors(objective: Objective) -> dict[str, int]:
    """The colour map a chain evaluation reads: priorities or Muller colours."""
    if objective.kind == PARITY:
        return dict(objective.priority_map)
    if objective.kind == MULLER:
        return dict(objective.color_map)
    raise ContractError(
        f"chain evaluation needs a parity or Muller objective, got {objective.kind}")


def _class_good(comp: tuple[Node, ...], objective: Objective,
                colors: Mapping[str, int]) -> bool:
    seen = {colors[s] for s, _ in comp}
    if objective.kind == PARITY:
        return min(seen) % 2 == 0
    return frozenset(seen) in objective.family


def evaluate_qualitative(chain: ProductChain, objective: Objective,
                         mode: WinningMode) -> bool:
    """Does the chained strategy win the objective in the given mode?

    Almost-sure: every reachable recurrent class satisfies the objective
    (its minimal priority is even / its colour set is accepting).
    Positive: at least one does.
    """
    colors = objective_colors(objective)
    missing = sorted({s for s, _ in chain.nodes} - set(colors))
    if missing:
        raise StructuralError(
            f"objective assigns nothing to states: {', '.join(missing)}")
    bottoms = chain.bottom_sccs()
    if mode == WinningMode.ALMOST_SURE:
        return all(_class_good(c, objective, colors) for c in bottoms)
    return any(_class_good(c, objective, colors) for c in bottoms)


# -- recurrence summaries --

@dataclass
class RecFunctions:
    """SetRec / BoolRec tables over the full product graph.

    ``set_rec[m][s]`` is the set of colour sets of recurrent classes
    reachable from (s, m); ``bool_rec[m][s]`` is 1 iff (s, m) itself lies in
    a recurrent class.  BoolRec = 1 forces SetRec to be the singleton of the
    colour set of the class containing (s, m).
    """

    set_rec: dict[str, dict[str, frozenset[frozenset[int]]]]
    bool_rec: dict[str, dict[str, int]]


def compute_rec_functions(pomdp: Pomdp, strategy,
                          colors: Mapping[str, int]) -> RecFunctions:
    """Tabulate SetRec and BoolRec for every pair (s, m) of S x M."""
    table = _checked_table(pomdp, strategy)
    missing = sorted(set(pomdp.states) - set(colors))
    if missing:
        raise StructuralError(f"no colour for states: {', '.join(missing)}")
    succ = full_product_graph(pomdp, table)
    comps, comp_of, is_bottom = _condense(tuple(succ), succ)
    # components arrive successors-first, so one pass suffices
    reach: list[frozenset[frozenset[int]]] = []
    for ci, comp in enumerate(comps):
        got: set[frozenset[int]] = set()
        if is_bottom[ci]:
            got.add(frozenset(colors[s] for s, _ in comp))
        for n in comp:
            for t in succ.get(n, ()):
                tc = comp_of[t]
                if tc != ci:
                    got |= reach[tc]
        reach.append(frozenset(got))
    set_rec: dict[str, dict[str, frozenset[frozenset[int]]]] = {}
    bool_rec: dict[str, dict[str, int]] = {}
    for m in table.memories:
        set_rec[m] = {}
        bool_rec[m] = {}
        for s in pomdp.states:
            ci = comp_of[(s, m)]
            set_rec[m][s] = reach[ci]
            bool_rec[m][s] = 1 if is_bottom[ci] else 0
    return RecFunctions(set_rec=set_rec, bool_rec=bool_rec)


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
