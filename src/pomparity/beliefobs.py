"""Belief-observation rewriting of two-priority POMDPs.

A finite-memory strategy, projected onto its recurrence summaries, walks a
graph of memory elements: (belief, committed set, class-set table) triples
(``strategy.MemoryElement``).  This module records, by its supports, the
POMDP whose states pair an unobserved model state with such an element,
whose observations reveal exactly the element, and whose extra actions
pick the next element.  On the result the belief always equals the
observation class (``is_belief_observation``), so memoryless strategies
suffice and the observation-set fixpoints of the solve module decide it.

Two variants share the skeleton:

* ``almost_cobuchi_red`` for priorities {1,2} — almost-sure co-Buchi
  analysis; initial elements certify that only all-priority-2 recurrences
  are reachable, and "winning pseudo-recurrent" states (committed, class
  table {{2}}, priority 2) are the reachability targets downstream.
* ``positive_buchi_red`` for priorities {0,1} — the Buchi analyses; the
  downstream target is simply the priority-0 states.

Element moves are generated, not enumerated from the astronomically large
full alphabet.  In co-Buchi mode, out-of-belief components are completed
canonically (the committed bit exactly on states a committed belief state
can reach; the class table as the intersection cap inherited from all
predecessors), and on-belief states choose between an "explore" move
(uncommitted, maximal cap) and a "commit" move (committed with class set
{{2}}).  Every generated move is one a play may adopt: committed belief
states reach only committed states, and along every model edge the class
table only shrinks (the tests check every generated move against this
predicate).  Every summary a real strategy could carry is dominated by a
generated one, so the reachable winning structure is preserved.  Where
no move at all is generatable the play is routed to the losing sink by a
dedicated reject action, mirroring how disallowed moves behave.  In
Buchi mode the downstream analyses target raw priority-0 states and
never read certificates, and a committed element's continuations are
always mirrored by its uncommitted counterpart, so elements carry no
commitments at all: the construction is the plain belief-support
automaton under maximal class tables, one successor element per branch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .model import (
    ContractError,
    Pomdp,
    ResourceLimitError,
    StructuralError,
    fresh_name,
)
from .strategy import MemoryElement, uniform

COBUCHI_MODE = "cobuchi"
BUCHI_MODE = "buchi"

_PRIORITY_SETS = {COBUCHI_MODE: (1, 2), BUCHI_MODE: (0, 1)}

DEFAULT_STATE_BUDGET = 10 ** 6


def _all_subsets(values: tuple[int, ...]) -> frozenset[frozenset[int]]:
    out = [frozenset()]
    for v in values:
        out += [zs | {v} for zs in out]
    return frozenset(out)


_TOP = {mode: _all_subsets(prios) for mode, prios in _PRIORITY_SETS.items()}
_GOOD2 = frozenset({frozenset({2})})

# (belief, committed set, class tables in model state order): one element,
# cheap to hash before the name-sorted ``MemoryElement`` is built
ElementKey = tuple[frozenset[str], frozenset[str],
                   tuple[frozenset[frozenset[int]], ...]]


def _priority_table(pomdp: Pomdp, priority: Mapping[str, int],
                    allowed: tuple[int, ...]) -> dict[str, int]:
    table = dict(priority)
    missing = [s for s in pomdp.states if s not in table]
    if missing:
        raise ContractError(
            "priority map misses states: " + ", ".join(missing))
    bad = sorted(s for s in pomdp.states if table[s] not in allowed)
    if bad:
        raise ContractError(
            f"priorities must lie in {set(allowed)}; offending states: "
            + ", ".join(bad))
    return table


def action_allowed(element: MemoryElement, action: str, pomdp: Pomdp,
                   priority: Mapping[str, int]) -> bool:
    """May ``action`` be played without breaking a certified recurrence?

    A belief state that is committed with a definite class set containing
    its own priority claims the play is inside a recurrent class with
    exactly those priorities; the action is allowed only if every
    successor of such a state keeps its priority inside the claimed set.
    """
    for s in element.belief:
        if s not in element.brec:
            continue
        zs = element.srec_of(s)
        if len(zs) != 1:
            continue
        (zinf,) = zs
        if priority[s] not in zinf:
            continue
        for t in pomdp.supp(s, action):
            if priority[t] not in zinf:
                return False
    return True


def _initial_elements(pomdp: Pomdp, priority: Mapping[str, int], mode: str,
                      root: str) -> tuple[ElementKey, ...]:
    """Element moves available before the first action, knowing the root.

    Co-Buchi elements must certify that only {2}-recurrences are reachable
    from the root; commitment is offered when the root's own priority fits.
    Buchi mode starts from the single maximal-table element.
    """
    belief = frozenset({root})
    tables = [_TOP[mode]] * len(pomdp.states)
    if mode == BUCHI_MODE:
        return ((belief, frozenset(), tuple(tables)),)
    tables[pomdp.state_index[root]] = _GOOD2
    out = [(belief, frozenset(), tuple(tables))]
    if priority[root] == 2:
        out.append((belief, belief, tuple(tables)))
    return tuple(out)


def _element_moves(pomdp: Pomdp, priority: Mapping[str, int], mode: str,
                   element: MemoryElement, action: str,
                   limit: int | None = None
                   ) -> Callable[[frozenset[str]], tuple[ElementKey, ...]]:
    """The generated element moves after ``action`` from ``element``.

    Returns a function from the new belief of one branch observation to
    that branch's moves; what the observation does not change is computed
    once, here.  Buchi mode yields the single belief-support successor
    under maximal tables.  In co-Buchi mode, out-of-belief components are
    canonical (forced commitments, cap tables); each new belief state
    contributes an explore and/or commit option, and the options multiply
    out.  No moves means the branch is dead: none is compatible with the
    commitments already made.  ``limit`` bounds the moves one branch may
    multiply out to.  Moves are element keys, which cost no canonical
    element to build.
    """
    top = _TOP[mode]
    if mode == BUCHI_MODE:
        maximal = (top,) * len(pomdp.states)
        return lambda new_belief: ((new_belief, frozenset(), maximal),)

    caps: dict[str, frozenset[frozenset[int]]] = {}
    forced: set[str] = set()
    for s in pomdp.states:
        if action not in pomdp.available_at(pomdp.obs_map[s]):
            continue
        ls = element.srec_of(s)
        committed = s in element.brec and s in element.belief
        for t in pomdp.supp(s, action):
            caps[t] = caps.get(t, top) & ls
            if committed:
                forced.add(t)
    base_tables = [caps.get(t, top) for t in pomdp.states]

    def moves(new_belief: frozenset[str]) -> tuple[ElementKey, ...]:
        base_brec = forced - new_belief
        per_state: list[tuple[str, int, list[tuple[bool, frozenset]]]] = []
        combinations = 1
        for i in sorted(map(pomdp.state_index.__getitem__, new_belief)):
            t = pomdp.states[i]
            cap = caps[t]
            options: list[tuple[bool, frozenset]] = []
            if t not in forced:
                options.append((False, cap))
            if priority[t] == 2 and frozenset({2}) in cap:
                options.append((True, _GOOD2))
            if not options:
                return ()
            per_state.append((t, i, options))
            combinations *= len(options)
        if limit is not None and combinations > limit:
            raise ResourceLimitError(
                f"one memory-selection branch multiplies out to {combinations} "
                f"element moves, past the {limit}-state budget")

        out: list[ElementKey] = []
        for combo in itertools.product(*(opts for _, _, opts in per_state)):
            brec = set(base_brec)
            tables = list(base_tables)
            for (t, i, _), (committed, table) in zip(per_state, combo):
                if committed:
                    brec.add(t)
                tables[i] = table
            out.append((new_belief, frozenset(brec), tuple(tables)))
        return tuple(out)

    return moves


@dataclass
class BeliefObsPomdp:
    """A belief-observation POMDP, recorded by its supports, plus bookkeeping.

    ``succ`` maps (state, action) to its successors and ``classes`` an
    observation to its states; ``supp``, ``states_with_obs`` and
    ``available`` answer from them as the playable model ``pomdp``
    (uniform exact weights, built on first use) would.  Observations named
    in ``elements`` are memory elements and double as the element-move
    action names.  ``memsel`` maps (element name, model action, model
    observation) to the intermediate observation where the next element is
    chosen, and ``moves`` lists the element names offered there (empty =
    routed to the sink by the reject action).  ``msel`` maps each state of
    such an observation to its model state t.  ``succ`` holds no row for
    a memory-selection state and an offered move e: that row is
    ``(A~t~e,)``, and ``supp`` answers it from ``msel`` and ``moves``; the
    reject rows are stored.  ``priority`` assigns every new state its
    two-priority value.
    """

    mode: str
    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    obs_map: dict[str, str]
    available: dict[str, frozenset[str]]
    succ: dict[tuple[str, str], tuple[str, ...]]
    classes: dict[str, list[str]]
    priority: dict[str, int]
    root: str
    init_state: str
    sink_state: str
    init_obs: str
    sink_obs: str
    reject_action: str
    initial_moves: tuple[str, ...]
    elements: dict[str, MemoryElement]
    memsel: dict[tuple[str, str, str], str]
    moves: dict[str, tuple[str, ...]] = field(default_factory=dict)
    msel: dict[str, str] = field(default_factory=dict)
    actionsel: dict[str, tuple[str, str]] = field(default_factory=dict)

    def supp(self, state: str, action: str) -> tuple[str, ...]:
        row = self.succ.get((state, action))
        if row is not None:
            return row
        t = self.msel.get(state)
        if t is None or action not in self.available[self.obs_map[state]]:
            return ()
        return (_act_state(t, action),)

    def states_with_obs(self, obs: str) -> Sequence[str]:
        return self.classes.get(obs, ())

    @cached_property
    def selection_obs(self) -> frozenset[str]:
        """Memory-selection observations that offer element moves.

        Each of their actions e leads every state to ``A~t~e``, which is
        observed as e, so their move rows need no walk over the class.
        """
        return frozenset(q for q, names in self.moves.items() if names)

    @cached_property
    def pomdp(self) -> Pomdp:
        """The playable model: uniform exact weights over every support.

        Rows come in construction order: the memory-selection rows of one
        (element, action) branch just before the first stored row of it.
        """
        branch_of: dict[str, tuple[str, str]] = {}
        pending: dict[tuple[str, str], list[str]] = {}
        for (ename, a, _), q in self.memsel.items():
            branch_of[q] = (ename, a)
            pending.setdefault((ename, a), []).append(q)
        weights = {}
        for (s, a), row in self.succ.items():
            branch = (branch_of[self.obs_map[s]] if s in self.msel
                      else (self.obs_map[s], a))
            for q in pending.pop(branch, ()):
                for m in self.classes[q]:
                    for e in self.moves[q] or (self.reject_action,):
                        weights[(m, e)] = uniform(self.supp(m, e))
            if (s, a) not in weights:
                weights[(s, a)] = uniform(row)
        return Pomdp(self.states, self.actions, self.observations,
                     self.obs_map, weights, self.init_state, self.available)

    def certified_recurrent(self) -> frozenset[str]:
        """Action-selection states whose element certifies a won recurrence.

        Committed, class table {{2}}, priority 2.  Buchi-mode elements
        never commit, so there the set is empty.
        """
        out: set[str] = set()
        for name, (s, elem_name) in self.actionsel.items():
            elem = self.elements[elem_name]
            if (s in elem.brec and elem.srec_map[s] == _GOOD2
                    and self.priority[name] == 2):
                out.add(name)
        return frozenset(out)


def _act_state(s: str, ename: str) -> str:
    return f"A~{s}~{ename}"


def _materialize(pomdp: Pomdp, priority: Mapping[str, int], mode: str,
                 root: str | None, budget: int) -> BeliefObsPomdp:
    if budget < 0:
        raise ContractError("state budget must not be negative")
    prio = _priority_table(pomdp, priority, _PRIORITY_SETS[mode])
    if root is None:
        root = pomdp.initial_state
    if root not in pomdp.state_index:
        raise StructuralError(f"unknown root state {root!r}")

    taken_actions = set(pomdp.actions)
    reject = fresh_name("reject", taken_actions)

    elem_name: dict[ElementKey, str] = {}
    elements: dict[str, MemoryElement] = {}

    init_state, sink_state = "start", "dead"
    init_obs, sink_obs = "o_start", "o_dead"
    to_sink = (sink_state,)

    states: list[str] = [init_state, sink_state]
    observations: list[str] = [init_obs, sink_obs]
    obs_map: dict[str, str] = {init_state: init_obs, sink_state: sink_obs}
    succ: dict[tuple[str, str], tuple[str, ...]] = {}
    available: dict[str, frozenset[str]] = {}
    priority_out: dict[str, int] = {
        init_state: 2 if mode == COBUCHI_MODE else 1, sink_state: 1}
    actionsel: dict[str, tuple[str, str]] = {}
    memsel: dict[tuple[str, str, str], str] = {}
    moves: dict[str, tuple[str, ...]] = {}
    msel: dict[str, str] = {}

    def guard_budget() -> None:
        if len(states) > budget:
            raise ResourceLimitError(
                f"belief-observation construction exceeded its {budget}-state "
                f"budget ({len(states)} states constructed)")

    def add_element(key: ElementKey) -> str:
        """Intern an element; register its action-selection states, queue it."""
        known = elem_name.get(key)
        if known is not None:
            return known
        belief, brec, tables = key
        elem = MemoryElement.make(belief, brec, dict(zip(pomdp.states, tables)))
        ename = fresh_name(f"m{len(elem_name)}", taken_actions)
        elem_name[key] = ename
        elements[ename] = elem
        observations.append(ename)
        for s in sorted(elem.belief, key=pomdp.state_index.__getitem__):
            name = _act_state(s, ename)
            states.append(name)
            obs_map[name] = ename
            priority_out[name] = prio[s]
            actionsel[name] = (s, ename)
        guard_budget()
        frontier.append(ename)
        return ename

    frontier: list[str] = []
    initial = _initial_elements(pomdp, prio, mode, root)
    initial_moves = tuple(add_element(e) for e in initial)
    available[init_obs] = frozenset(initial_moves)
    for ename in initial_moves:
        succ[(init_state, ename)] = (_act_state(root, ename),)

    cursor = 0
    while cursor < len(frontier):
        ename = frontier[cursor]
        cursor += 1
        elem = elements[ename]
        model_obs = pomdp.obs_map[next(iter(elem.belief))]
        acts = sorted(pomdp.available_at(model_obs),
                      key=pomdp.action_index.__getitem__)
        available[ename] = frozenset(acts)
        for a in acts:
            if not action_allowed(elem, a, pomdp, prio):
                for s in elem.belief:
                    succ[(_act_state(s, ename), a)] = to_sink
                continue
            reached = sorted(
                {t for s in elem.belief for t in pomdp.supp(s, a)},
                key=pomdp.state_index.__getitem__)
            split: dict[str, list[str]] = {}
            for t in reached:
                split.setdefault(pomdp.obs_map[t], []).append(t)
            moves_to = _element_moves(pomdp, prio, mode, elem, a, limit=budget)
            qname_of: dict[str, str] = {}
            for o in sorted(split, key=pomdp.obs_index.__getitem__):
                qname = f"q{len(memsel)}"
                memsel[(ename, a, o)] = qname
                qname_of[o] = qname
                observations.append(qname)
                move_names = tuple(add_element(e2)
                                   for e2 in moves_to(frozenset(split[o])))
                moves[qname] = move_names
                available[qname] = (frozenset(move_names) if move_names
                                    else frozenset({reject}))
                for t in split[o]:
                    mname = f"M~{t}~{qname}"
                    states.append(mname)
                    obs_map[mname] = qname
                    priority_out[mname] = prio[t]
                    msel[mname] = t
                    if not move_names:
                        succ[(mname, reject)] = to_sink
                guard_budget()
            for s in elem.belief:
                succ[(_act_state(s, ename), a)] = tuple(
                    f"M~{t}~{qname_of[pomdp.obs_map[t]]}"
                    for t in pomdp.supp(s, a))

    all_actions = tuple(pomdp.actions) + (reject,) + tuple(elements)
    for a in all_actions:
        succ[(sink_state, a)] = to_sink
    available[sink_obs] = frozenset(all_actions)
    classes: dict[str, list[str]] = {}
    for s in states:
        classes.setdefault(obs_map[s], []).append(s)

    return BeliefObsPomdp(
        mode=mode, states=tuple(states), actions=all_actions,
        observations=tuple(observations), obs_map=obs_map,
        available=available, succ=succ, classes=classes,
        priority=priority_out, root=root, init_state=init_state,
        sink_state=sink_state, init_obs=init_obs, sink_obs=sink_obs,
        reject_action=reject, initial_moves=initial_moves,
        elements=elements, memsel=memsel, moves=moves, msel=msel,
        actionsel=actionsel)


def almost_cobuchi_red(pomdp: Pomdp, priority: Mapping[str, int],
                       root: str | None = None,
                       budget: int = DEFAULT_STATE_BUDGET) -> BeliefObsPomdp:
    """Belief-observation rewrite for almost-sure co-Buchi (priorities {1,2}).

    ``root`` defaults to the model's initial state; passing another state
    analyses the model as if started there with the controller knowing it.
    Construction is a forward closure from the initial element moves and
    aborts with a resource error beyond ``budget`` constructed states.
    """
    return _materialize(pomdp, priority, COBUCHI_MODE, root, budget)


def positive_buchi_red(pomdp: Pomdp, priority: Mapping[str, int],
                       root: str | None = None,
                       budget: int = DEFAULT_STATE_BUDGET) -> BeliefObsPomdp:
    """Belief-observation rewrite for the Buchi analyses (priorities {0,1}).

    Same skeleton as ``almost_cobuchi_red``, but elements are plain belief
    supports under maximal class tables: the Buchi analyses target raw
    priority-0 states and read no certificates.  Used re-rooted: positive
    Buchi winning holds iff some state reachable from the initial state
    admits an almost-sure win from there.
    """
    return _materialize(pomdp, priority, BUCHI_MODE, root, budget)


def is_belief_observation(pomdp: Pomdp, depth: int = 10 ** 6) -> bool:
    """Does the belief always equal the full observation class?

    Explores beliefs breadth-first from the initial state, memoizing, for
    up to ``depth`` layers; once the belief set saturates before the bound
    the answer is exact, otherwise it covers all plays of length ``depth``.
    """
    if depth < 1:
        raise ContractError("exploration depth must be at least 1")
    start = frozenset({pomdp.initial_state})
    if set(pomdp.states_with_obs(pomdp.obs_map[pomdp.initial_state])) != start:
        return False
    seen = {start}
    layer = [start]
    for _ in range(depth):
        if not layer:
            return True
        nxt: list[frozenset[str]] = []
        for belief in layer:
            here = pomdp.obs_map[next(iter(belief))]
            for a in sorted(pomdp.available_at(here)):
                union = {t for s in belief for t in pomdp.supp(s, a)}
                for o in sorted({pomdp.obs_map[t] for t in union}):
                    b2 = frozenset(t for t in union if pomdp.obs_map[t] == o)
                    if b2 in seen:
                        continue
                    if set(pomdp.states_with_obs(o)) != b2:
                        return False
                    seen.add(b2)
                    nxt.append(b2)
        layer = nxt
    return True
