"""Belief-observation rewriting of two-priority POMDPs.

A finite-memory strategy, projected onto its recurrence summaries, walks a
graph of memory elements: (belief, committed set, class-set table) triples
(``strategy.MemoryElement``).  This module records, by its supports, the
POMDP whose states pair an unobserved model state with such an element,
whose observations reveal exactly the element, and whose extra actions
pick the next element.  On the result the belief always equals the
observation class (``is_belief_observation``), so memoryless strategies
suffice and the observation-set fixpoints of the solve module decide it.
The construction reads the model's supports only through its integer
table ``Pomdp.index_supports``: elements are keyed by state index, an
unavailable action is an empty row, and every order is index order.  Its
own states are integer ids too, and as it numbers them it writes the
observation graph the fixpoints read (``ObsGraph``); only the playable
model it can build on demand, which the solve path never reads, names
them.

Two variants share the skeleton:

* ``almost_cobuchi_red`` for priorities {1,2} — almost-sure co-Buchi
  analysis; initial elements certify that only all-priority-2 recurrences
  are reachable, and the "winning pseudo-recurrent" states (committed,
  class table {{2}}, priority 2) are the Buchi targets downstream.
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
generated one, so the reachable winning structure is preserved.  One
construction enumerates each branch signature (forced commitments, cap
tables, new belief) once: branches with equal signatures share one move
tuple and one offered set, so these objects must never be mutated.

The co-Buchi commitment invariant: every class table of an element
contains {2}, and every committed belief state has table {{2}} and
priority 2.  Only the root and the commit option commit, both with {{2}}
and priority 2; caps (the explore tables) intersect tables that all
contain {2}; an action is allowed only if every state a committed belief
state reaches under it has priority 2, so a forced state can always
commit.  Hence every branch offers an element move, and only disallowed
actions enter the losing sink.  The certified-recurrent states (the
committed belief states) are closed: every allowed action of one leads,
through every offered element move, to certified-recurrent states.  Such
a state's successors t are forced, a forced t (priority 2, as the action
is allowed) is offered only the commit option, and t lies in its
branch's new belief, so every offered element holds t as a committed
belief state.  A play that avoids the sink thus stays among these states
once it reaches them: reaching them is visiting them infinitely often.

The sink can always be avoided surely from the initial observation, if
every observation allows an action (as ``model.validate`` requires).  An
element with no committed belief state forces nothing, so it allows every
action, and every branch offers the all-explore move, to an element that
again has no committed state.  The initial observation offers such an
element, so the safety fixpoint keeps it: a co-Buchi "no" always fails
at the reachability stage.

In Buchi mode the downstream analyses target raw priority-0 states and
never read certificates, and a committed element's continuations are
always mirrored by its uncommitted counterpart, so elements carry no
commitments at all: the construction is the plain belief-support
automaton under maximal class tables, one successor element per branch.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

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

# the start and the losing sink, as state ids and as observation ids
START, DEAD = 0, 1

# (belief, committed set, class tables) over state indices: the belief
# ascending, the tables in index order; one element as the construction
# keeps it, its name-sorted ``MemoryElement`` built only on demand
ElementKey = tuple[tuple[int, ...], frozenset[int],
                   tuple[frozenset[frozenset[int]], ...]]


def _priority_table(pomdp: Pomdp, priority: Mapping[str, int],
                    allowed: tuple[int, ...]) -> list[int]:
    """The priorities by state index, each checked to lie in ``allowed``."""
    missing = [s for s in pomdp.states if s not in priority]
    if missing:
        raise ContractError(
            "priority map misses states: " + ", ".join(missing))
    bad = sorted(s for s in pomdp.states if priority[s] not in allowed)
    if bad:
        raise ContractError(
            f"priorities must lie in {set(allowed)}; offending states: "
            + ", ".join(bad))
    return [priority[s] for s in pomdp.states]


def _initial_elements(prio: Sequence[int], mode: str,
                      root: int) -> tuple[ElementKey, ...]:
    """Element moves available before the first action, knowing the root.

    Co-Buchi elements must certify that only {2}-recurrences are reachable
    from the root; commitment is offered when the root's own priority fits.
    Buchi mode starts from the single maximal-table element.
    """
    belief = (root,)
    tables = [_TOP[mode]] * len(prio)
    if mode == BUCHI_MODE:
        return ((belief, frozenset(), tuple(tables)),)
    tables[root] = _GOOD2
    out = [(belief, frozenset(), tuple(tables))]
    if prio[root] == 2:
        out.append((belief, frozenset(belief), tuple(tables)))
    return tuple(out)


def _element_moves(rows: Sequence[Sequence[tuple[int, ...]]],
                   prio: Sequence[int], mode: str, action: int,
                   tables: tuple[frozenset[frozenset[int]], ...],
                   committed: frozenset[int], limit: int
                   ) -> tuple[()] | tuple[tuple, Callable[
                       [tuple[int, ...]], tuple[ElementKey, ...]]]:
    """The generated element moves after ``action`` from an element.

    ``rows`` and ``prio`` are the model's successor rows and priorities by
    index; the element enters only through its class ``tables`` and its
    committed belief states.  Returns ``()`` if the action is disallowed:
    if under it a committed belief state, which certifies a priority-2
    recurrence, reaches a state of another priority.  Otherwise returns a
    signature and a function from the new belief of one branch observation
    to that branch's moves; what the observation does not change is
    computed once, here.  The moves depend only on the signature (the
    forced commitments and cap tables; empty in Buchi mode) and the new
    belief.  Buchi mode yields the single belief-support successor under
    maximal tables.  In co-Buchi mode, out-of-belief components are
    canonical (forced commitments, cap tables); each new belief state
    contributes an explore and/or commit option, and the options multiply
    out.  By the commitment invariant every state has an option, so every
    branch has a move.  ``limit`` bounds the moves one branch may multiply
    out to.  Moves are element keys, which cost no canonical element to
    build.
    """
    top = _TOP[mode]
    if mode == BUCHI_MODE:
        maximal = (top,) * len(rows)
        return (), lambda new_belief: ((new_belief, frozenset(), maximal),)

    forced = frozenset(t for s in committed for t in rows[s][action])
    if any(prio[t] != 2 for t in forced):
        return ()
    caps = [top] * len(rows)
    for row, table in zip(rows, tables):
        for t in row[action]:
            caps[t] &= table
    caps = tuple(caps)

    def moves(new_belief: tuple[int, ...]) -> tuple[ElementKey, ...]:
        base_brec = forced.difference(new_belief)
        per_state: list[list[tuple[bool, frozenset]]] = []
        combinations = 1
        for t in new_belief:
            options: list[tuple[bool, frozenset]] = []
            if t not in forced:
                options.append((False, caps[t]))
            if prio[t] == 2:
                options.append((True, _GOOD2))
            per_state.append(options)
            combinations *= len(options)
        if combinations > limit:
            raise ResourceLimitError(
                f"one memory-selection branch multiplies out to {combinations} "
                f"element moves, past the {limit}-state budget")

        out: list[ElementKey] = []
        for combo in itertools.product(*per_state):
            brec = set(base_brec)
            new_tables = list(caps)
            for t, (commit, table) in zip(new_belief, combo):
                if commit:
                    brec.add(t)
                new_tables[t] = table
            out.append((new_belief, frozenset(brec), tuple(new_tables)))
        return tuple(out)

    return (forced, caps), moves


@dataclass
class BeliefObsPomdp:
    """A belief-observation POMDP, recorded by its supports, plus bookkeeping.

    States are ids: ``START``, ``DEAD`` (the losing sink), then one id
    range ``ranges[j]`` per further observation ``observations[j]``, one
    state per belief state in belief order; ``origin`` maps each to its
    model state index.  Observations named in ``keys`` are memory elements
    and double as the element-move action names; ``keys`` maps each to
    its interned ``ElementKey`` over the indices of ``state_names``.
    ``memsel`` maps (element name, model action, model observation) to
    the intermediate observation of that branch, where ``moves`` lists
    the element names offered (never empty, by the commitment invariant).
    ``graph`` is the observation graph the fixpoints read, written while
    the ids were numbered.  ``successors`` reads every row off these
    records: an allowed (element, action) has one block in ``rows``, its
    states' successor ids in belief order, read off the graph and the
    model's rows ``model_rows`` on demand; a disallowed one is recorded
    once and leads to the sink, as does the sink; a move e leads the
    start, and the memory-selection state of belief position p, to state
    p of element e.  ``element(name)``, ``elements`` and the named,
    playable ``pomdp`` are built on demand.  Branches with equal
    signatures share one ``moves`` tuple and one ``available`` set, so
    these objects must never be mutated.
    """

    mode: str
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    available: dict[str, frozenset[str]]
    ranges: list[range]
    origin: array
    model_rows: tuple[tuple[tuple[int, ...], ...], ...]
    disallowed: set[tuple[str, str]]
    prio: list[int]
    root: str
    init_obs: str
    sink_obs: str
    initial_moves: tuple[str, ...]
    keys: dict[str, ElementKey]
    state_names: tuple[str, ...]
    memsel: dict[tuple[str, str, str], str]
    moves: dict[str, tuple[str, ...]]
    graph: ObsGraph

    def successors(self, i: int, j: int, action: str) -> tuple[int, ...]:
        """The successor ids of state ``i``, observed as ``observations[j]``,
        under an action available there."""
        o, ranges = self.observations[j], self.ranges
        block = self.rows.get((o, action))
        if block is not None:
            return block[i - ranges[j].start]
        if j == DEAD or (o, action) in self.disallowed:
            return (DEAD,)
        return (ranges[self.obs_index[action]].start + i - ranges[j].start,)

    def priority(self, i: int) -> int:
        """The two-priority value of state ``i``."""
        return (self.prio[self.origin[i]] if i > DEAD
                else 2 if i == START and self.mode == COBUCHI_MODE else 1)

    @cached_property
    def rows(self) -> dict[tuple[str, str], tuple[tuple[int, ...], ...]]:
        """The block of every allowed (element, action), each row in the
        model's row order: every memory-selection observation is a branch
        of the one element slot that leads to it."""
        g, names = self.graph, self.observations
        index = {a: i for i, a in enumerate(self.actions)}
        branches: dict[int, dict[int, int]] = {}  # slot -> model state -> id
        for q, ids in enumerate(self.ranges):
            if g.moving[q] and q != START:
                branches.setdefault(g.pred[q][0], {}).update(
                    zip(self.origin[ids.start:ids.stop], ids))
        return {(names[g.owner[k]], g.acts[k]): tuple(
            tuple(map(into.__getitem__, self.model_rows[s][index[g.acts[k]]]))
            for s in self.keys[names[g.owner[k]]][0])
            for k, into in branches.items()}

    @cached_property
    def obs_index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.observations)}

    @cached_property
    def pomdp(self) -> Pomdp:
        """The playable model: named states, uniform exact weights."""
        names, origin, keys = self.state_names, self.origin, self.keys
        states = ["start", "dead"] + [""] * (len(origin) - 2)
        spans = list(enumerate(zip(self.observations, self.ranges)))
        for j, (o, ids) in spans[2:]:
            for i in ids:
                states[i] = f"{'A' if o in keys else 'M'}~{names[origin[i]]}~{o}"
        weights = {(states[i], a): uniform(
                       [states[t] for t in self.successors(i, j, a)])
                   for j, (o, ids) in spans for i in ids for a in self.available[o]}
        return Pomdp(states, self.actions, self.observations,
                     {states[i]: o for _, (o, ids) in spans for i in ids},
                     weights, states[START], self.available)

    def element(self, name: str) -> MemoryElement:
        """The memory element observed as ``name``, built from its key,
        whose class tables are already frozen."""
        belief, brec, tables = self.keys[name]
        names = self.state_names
        return MemoryElement(frozenset(map(names.__getitem__, belief)),
                             frozenset(map(names.__getitem__, brec)),
                             tuple(sorted(zip(names, tables))))

    @cached_property
    def elements(self) -> dict[str, MemoryElement]:
        return {name: self.element(name) for name in self.keys}

    def certified_recurrent(self) -> frozenset[int]:
        """Action-selection states whose element certifies a won recurrence.

        By the commitment invariant these are exactly the committed belief
        states (class table {{2}}, priority 2).  Buchi-mode elements never
        commit, so there the set is empty.
        """
        ranges, index = self.ranges, self.obs_index
        return frozenset(ranges[index[ename]].start + p
                         for ename, (belief, brec, _) in self.keys.items()
                         for p, s in enumerate(belief) if s in brec)


@dataclass
class ObsGraph:
    """Which observations each available (observation, action) can lead to.

    The one form the solve fixpoints read, over integer ids: observation
    j is ``observations[j]`` and owns the action slots ``slots[j]``, one
    per available action; slot k plays ``acts[k]`` at observation
    ``owner[k]``.  ``pred[j]`` lists, once each, the slots that can lead
    to observation j (as a C int array where it grows: on a large rewrite
    the slot ids would otherwise be one Python int object each).
    ``members[j]`` lists observation j's state ids (a ``Pomdp``'s state
    indices, a rewrite's range).  ``moving[j]`` marks a rewrite's initial
    and memory-selection observations, whose slots are its move slots: a
    move slot naming element e leads state p of its observation to state
    p of e.  The move slots naming e are exactly ``pred[e]``; no other
    observation's ``pred`` holds one, and a ``Pomdp`` has none.  Every
    other edge is reversed once, in flat int arrays: state i of
    observation j has the entries n from ``back_base[j] + back_at[2 * i]``
    to ``back_base[j] + back_at[2 * i + 1] - 1``, each saying that state
    ``members[owner[k]][back[n]]`` can lead to it under slot ``k =
    back_slot[n]``.  Sources are positions and bounds are relative, so a
    rewrite copies each branch's entries from one template; its element
    states, reached only by move slots, have none.

    A fixpoint keeps, for the observations inside its current set (a
    bitmap over observation ids), the live slots (every successor inside)
    and their count per observation: ``counters`` makes them for the set
    it starts from, ``kill`` updates them as observations leave the set,
    and ``kept`` names the set and its live actions.  A dead slot never
    revives.
    """

    observations: tuple[str, ...]
    slots: list[range]
    acts: list[str]
    owner: list[int]
    pred: list[Sequence[int]]
    members: Sequence[Sequence[int]]
    moving: bytearray
    back: array
    back_slot: array
    back_at: array
    back_base: Sequence[int]

    def counters(self, inside: bytearray) -> tuple[bytearray, list[int]]:
        """The live slots of the observations ``inside`` marks, and the
        live slots' count per observation."""
        live = bytearray(map(inside.__getitem__, self.owner))
        count = [here and len(ks) for here, ks in zip(inside, self.slots)]
        self.kill(live, count, [j for j, here in enumerate(inside) if not here])
        return live, count

    def kill(self, live: bytearray, count: list[int],
             removed: Iterable[int]) -> list[int]:
        """Kill the slots of removed observations and the live slots that
        can lead to them; return the observations that lost their last
        live slot."""
        slots, owner, pred = self.slots, self.owner, self.pred
        emptied = []
        for j in removed:
            live[slots[j].start:slots[j].stop] = bytes(len(slots[j]))
            count[j] = 0
            for k in pred[j]:
                if live[k]:
                    live[k] = 0
                    o = owner[k]
                    count[o] -= 1
                    if not count[o]:
                        emptied.append(o)
        return emptied

    def kept(self, inside: bytearray, live: bytearray,
             ) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
        """The observations inside, and the actions of their live slots."""
        acts = self.acts
        plays = {o: frozenset(acts[k] for k in self.slots[j] if live[k])
                 for j, o in enumerate(self.observations) if inside[j]}
        return frozenset(plays), plays


def obs_graph(model: Pomdp) -> ObsGraph:
    """The observation graph of a model's available actions, compiled
    from ``Pomdp.index_supports`` by walking the rows of every state.  A
    rewrite's graph is written by its construction (``bo.graph``)."""
    (obs_of, table), sidx = model.index_supports, model.state_index
    members = [[sidx[s] for s in model.states_with_obs(o)]
               for o in model.observations]
    n, acts, owner, slots = len(members), [], [], []
    pred = [array("i") for _ in range(n)]
    into: list[list[int]] = [[] for _ in model.states]  # (slot, position)s
    for j, o in enumerate(model.observations):
        slots.append(range(len(acts), len(acts) + len(model.available[o])))
        for k, a in zip(slots[j], model.available[o]):
            acts.append(a)
            owner.append(j)
            col = model.action_index[a]
            for i in {obs_of[t] for s in members[j] for t in table[s][col]}:
                pred[i].append(k)
            for p, s in enumerate(members[j]):
                for t in table[s][col]:
                    into[t] += (k, p)
    edges = array("i", itertools.chain(*into))
    ends = list(itertools.accumulate(len(pairs) // 2 for pairs in into))
    return ObsGraph(model.observations, slots, acts, owner, pred, members,
                    bytearray(n), edges[1::2], edges[::2], array(
                        "i", itertools.chain(*zip([0] + ends, ends))), [0] * n)


def _branches(rows: Sequence[Sequence[tuple[int, ...]]], obs_of: Sequence[int],
              belief: tuple[int, ...], action: int) -> list[tuple]:
    """The branches of a belief under an action, by observation index:
    the observation, the new belief as a tuple and as an array, and per
    new belief state the positions of the belief states that reach it,
    concatenated, with the bounds of each state's run."""
    into: dict[int, list[int]] = {}
    for p, s in enumerate(belief):
        for t in rows[s][action]:
            into.setdefault(t, []).append(p)
    out = []
    for o, new in itertools.groupby(sorted(sorted(into), key=obs_of.__getitem__),
                                    obs_of.__getitem__):
        new = tuple(new)
        reach, bounds = array("i"), array("i")
        for t in new:
            bounds.append(len(reach))
            reach.fromlist(into[t])
            bounds.append(len(reach))
        out.append((o, new, array("i", new), reach, bounds))
    return out


def _materialize(pomdp: Pomdp, priority: Mapping[str, int], mode: str,
                 root: str | None, budget: int) -> BeliefObsPomdp:
    if budget < 0:
        raise ContractError("state budget must not be negative")
    prio = _priority_table(pomdp, priority, _PRIORITY_SETS[mode])
    if root is None:
        root = pomdp.initial_state
    if root not in pomdp.state_index:
        raise StructuralError(f"unknown root state {root!r}")
    action_names = pomdp.actions
    obs_of, rows = pomdp.index_supports

    taken_actions = set(action_names)

    elem_obs: dict[ElementKey, int] = {}
    keys: dict[str, ElementKey] = {}

    init_obs, sink_obs = "o_start", "o_dead"
    # per observation id its name and state ids, then state id -> its
    # model state index, then the observation graph, all written as ids
    # are numbered
    observations: list[str] = [init_obs, sink_obs]
    ranges = [range(START, START + 1), range(DEAD, DEAD + 1)]
    origin = array("i", [-1, -1])
    slots, acts, owner = [range(0), range(0)], [], []
    pred: list[Sequence[int]] = [array("i"), array("i")]
    moving = bytearray([1, 0])
    back, back_slot, back_at = array("i"), array("i"), array("i", [0] * 4)
    back_base = array("i", [0, 0])
    # (slot, belief size) of each disallowed (element, action)
    dead: list[tuple[int, int]] = []
    disallowed: set[tuple[str, str]] = set()
    available: dict[str, frozenset[str]] = {}
    memsel: dict[tuple[str, str, str], str] = {}
    moves: dict[str, tuple[str, ...]] = {}
    # (action, tables, committed belief states) -> _element_moves, () if
    # the action is disallowed
    cap_memo: dict[tuple, tuple] = {}
    # (belief, action) -> _branches
    split_memo: dict[tuple, list[tuple]] = {}
    # (signature, new belief) -> one branch's offered names and their
    # observation ids, shared
    branch_memo: dict[tuple, tuple[tuple[str, ...], frozenset[str],
                                   tuple[int, ...]]] = {}
    # (observation id, key); walked in order as it grows
    frontier: list[tuple[int, ElementKey]] = []

    def add_obs(name: str, selecting: int, into: Sequence[int]) -> int:
        """Number an observation; its states and slots come later."""
        observations.append(name)
        ranges.append(range(0))
        slots.append(range(0))
        pred.append(into)
        moving.append(selecting)
        back_base.append(len(back))
        return len(observations) - 1

    def add_states(j: int, belief: Sequence[int]) -> int:
        """Number an observation's states, one per belief state; the first."""
        base = len(origin)
        origin.extend(belief)
        ranges[j] = range(base, len(origin))
        if len(origin) > budget:
            raise ResourceLimitError(
                f"belief-observation construction exceeded its {budget}-state "
                f"budget ({len(origin)} states constructed)")
        return base

    def add_slots(j: int, names: Sequence[str],
                  targets: Sequence[int] = ()) -> int:
        """Number an observation's action slots, as move slots to the
        elements ``targets`` if given; the first."""
        slots[j] = range(len(acts), len(acts) + len(names))
        acts.extend(names)
        owner.extend([j] * len(names))
        for k, e in zip(slots[j], targets):
            pred[e].append(k)
        return slots[j].start

    def add_element(key: ElementKey) -> int:
        """Intern an element; number its action-selection states, which
        have no reverse entries, and queue it."""
        known = elem_obs.get(key)
        if known is not None:
            return known
        ename = fresh_name(f"m{len(elem_obs)}", taken_actions)
        j = elem_obs[key] = add_obs(ename, 0, array("i"))
        keys[ename] = key
        add_states(j, key[0])
        back_at.extend(array("i", [0, 0]) * len(key[0]))
        frontier.append((j, key))
        return j

    # model observation index -> its available actions, by index and name
    playable: dict[int, tuple[list[int], list[str], frozenset[str]]] = {}
    for o, row in zip(obs_of, rows):
        here = [a for a, successors in enumerate(row) if successors]
        names = [action_names[a] for a in here]
        playable.setdefault(o, (here, names, frozenset(names)))

    initial = tuple(map(add_element, _initial_elements(
        prio, mode, pomdp.state_index[root])))
    initial_moves = tuple(map(observations.__getitem__, initial))
    available[init_obs] = frozenset(initial_moves)
    add_slots(START, initial_moves, initial)

    for je, (belief, brec, tables) in frontier:
        ename = observations[je]
        committed = brec.intersection(belief)
        here, names, available[ename] = playable[obs_of[belief[0]]]
        for k, a in enumerate(here, add_slots(je, names)):
            aname = action_names[a]
            cap_key = (a, tables, committed)
            found = cap_memo.get(cap_key)
            if found is None:
                found = cap_memo[cap_key] = _element_moves(
                    rows, prio, mode, a, tables, committed, budget)
            if not found:
                disallowed.add((ename, aname))
                dead.append((k, len(belief)))
                continue
            signature, moves_to = found
            split = split_memo.get((belief, a))
            if split is None:
                split = split_memo[(belief, a)] = _branches(
                    rows, obs_of, belief, a)
            for o, new_belief, states, reach, bounds in split:
                qname = f"q{len(memsel)}"
                memsel[(ename, aname, pomdp.observations[o])] = qname
                q = add_obs(qname, 1, (k,))
                back += reach
                branch = (signature, new_belief)
                offered = branch_memo.get(branch)
                if offered is None:
                    made = tuple(map(add_element, moves_to(new_belief)))
                    names = tuple(map(observations.__getitem__, made))
                    offered = branch_memo[branch] = (
                        names, frozenset(names), made)
                moves[qname], available[qname], made = offered
                add_slots(q, moves[qname], made)
                add_states(q, states)
                back_at += bounds
            back_slot += array("i", [k]) * (len(back) - len(back_slot))

    all_actions = action_names + tuple(keys)
    available[sink_obs] = frozenset(all_actions)
    # the sink's reverse entries, known last: the states of disallowed
    # (element, action)s, and the sink itself under every action
    sink = add_slots(DEAD, all_actions)
    back_base[DEAD] = len(back)
    for k, size in dead + [(k, 1) for k in range(sink, len(acts))]:
        pred[DEAD].append(k)
        back.extend(range(size))
        back_slot += array("i", [k]) * size
    back_at[2 * DEAD + 1] = len(back) - back_base[DEAD]

    observations = tuple(observations)
    return BeliefObsPomdp(
        mode=mode, actions=all_actions, observations=observations,
        available=available, ranges=ranges, origin=origin, model_rows=rows,
        disallowed=disallowed, prio=prio, root=root, init_obs=init_obs,
        sink_obs=sink_obs, initial_moves=initial_moves, keys=keys,
        state_names=pomdp.states, memsel=memsel, moves=moves,
        graph=ObsGraph(observations, slots, acts, owner, pred, ranges,
                       moving, back, back_slot, back_at, back_base))


def almost_cobuchi_red(pomdp: Pomdp, priority: Mapping[str, int],
                       budget: int = DEFAULT_STATE_BUDGET) -> BeliefObsPomdp:
    """Belief-observation rewrite for almost-sure co-Buchi (priorities {1,2}).

    Rooted at the model's initial state.  Construction is a forward
    closure from the initial element moves and aborts with a resource
    error beyond ``budget`` constructed states.
    """
    return _materialize(pomdp, priority, COBUCHI_MODE, None, budget)


def positive_buchi_red(pomdp: Pomdp, priority: Mapping[str, int],
                       root: str | None = None,
                       budget: int = DEFAULT_STATE_BUDGET) -> BeliefObsPomdp:
    """Belief-observation rewrite for the Buchi analyses (priorities {0,1}).

    Same skeleton as ``almost_cobuchi_red``, but elements are plain belief
    supports under maximal class tables: the Buchi analyses target raw
    priority-0 states and read no certificates.  ``root`` defaults to the
    model's initial state; passing another state analyses the model as if
    started there with the controller knowing it.  Used re-rooted:
    positive Buchi winning holds iff some state reachable from the
    initial state admits an almost-sure win from there.
    """
    return _materialize(pomdp, priority, BUCHI_MODE, root, budget)


def is_belief_observation(pomdp: Pomdp) -> bool:
    """Does the belief always equal the full observation class?

    Explores beliefs breadth-first from the initial state, memoizing every
    belief seen, until no new belief appears: the answer is exact.
    """
    start = frozenset({pomdp.initial_state})
    if set(pomdp.states_with_obs(pomdp.obs_map[pomdp.initial_state])) != start:
        return False
    seen = {start}
    layer = [start]
    while layer:
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
