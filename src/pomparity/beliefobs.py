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
observation graph the fixpoints read (``ObsGraph``), a quotient that
gives each class of memory-selection branches with equal signature and
new belief one observation; only the playable model it can build on
demand, which the solve path never reads, names them.

Two variants share the skeleton:

* ``almost_cobuchi_red`` for priorities {1,2} — almost-sure co-Buchi
  analysis; initial elements certify that only all-priority-2 recurrences
  are reachable, and the "winning pseudo-recurrent" states (committed,
  class table {{2}}, priority 2) are the Buchi targets downstream.
* ``positive_buchi_red`` for priorities {0,1} — the Buchi analyses; the
  downstream target is simply the priority-0 states.

Element moves are generated, not enumerated from the astronomically large
full alphabet.  One rule (``_explore_or_commit``) builds every element:
out-of-belief components are completed canonically (the committed bit
exactly on the forced states, those a committed belief state can reach;
the class table as the intersection cap inherited from all
predecessors), and each new belief state chooses between an "explore"
move (uncommitted, maximal cap) and, at priority 2, a "commit" move
(committed with class set {{2}}).  The start is an instance: its new
belief is the root, nothing is forced, and every cap is maximal except
the root's, which is {{2}} in co-Buchi mode.  So is Buchi mode: no state
has priority 2, so nothing commits or is forced, every table stays
maximal, and each branch gets the single explore move, the plain
belief-support successor; the signature (no forced states, maximal caps)
is the same for every action, so branches group by new belief alone.
Every generated move is one a play may adopt: committed belief
states reach only committed states, and along every model edge the class
table only shrinks (the tests check every generated move against this
predicate).  Every summary a real strategy could carry is dominated by a
generated one, so the reachable winning structure is preserved.  One
construction enumerates each branch signature (forced commitments, cap
tables, new belief) once: branches with equal signatures share one move
tuple, one offered set and one fixpoint-graph observation, so these
objects must never be mutated.

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
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Mapping, Sequence

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


def _explore_or_commit(prio: Sequence[int], forced: frozenset[int],
                       caps: tuple[frozenset[frozenset[int]], ...],
                       new_belief: tuple[int, ...],
                       limit: int) -> tuple[ElementKey, ...]:
    """The one rule that builds element keys: the elements a play may
    adopt on entering ``new_belief``.  Outside it they keep the ``forced``
    commitments and the ``caps`` tables; each new belief state t explores
    (uncommitted, table ``caps[t]``) unless forced, and commits (table
    {{2}}) at priority 2.  The options multiply out, explore first, to at
    most ``limit`` moves."""
    base_brec = forced.difference(new_belief)
    per_state: list[tuple[bool, ...]] = []  # per state: commit? options
    combinations = 1
    for t in new_belief:
        options = (False,) * (t not in forced) + (True,) * (prio[t] == 2)
        per_state.append(options)
        combinations *= len(options)
    if combinations > limit:
        raise ResourceLimitError(
            f"one memory-selection branch multiplies out to {combinations} "
            f"element moves, past the {limit}-state budget")

    out: list[ElementKey] = []
    for combo in itertools.product(*per_state):
        commits = list(itertools.compress(new_belief, combo))
        if not commits:  # every state explores: the caps as they are
            out.append((new_belief, base_brec, caps))
            continue
        new_tables = list(caps)
        for t in commits:
            new_tables[t] = _GOOD2
        # through a set, which sizes the frozenset to fit (a union would not)
        out.append((new_belief, frozenset({*base_brec, *commits}),
                    tuple(new_tables)))
    return tuple(out)


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
    the ids were numbered, a quotient (``ObsGraph``): its observation c
    stands for the observations ``stands_for[c]``, a class's branches in
    ``pred`` order, and otherwise for c's own.  ``successors`` reads every
    row off these records: an allowed (element, action) has one block in
    ``rows``, its states' successor ids in belief order, read off the
    graph and the model's rows ``model_rows`` on demand.  Every other
    action of an element is disallowed: under it a committed belief state
    reaches a state of priority other than 2 (the rule the module
    docstring states with the commitment invariant).  It leads to the
    sink, as does the sink under every action, and the graph records it
    once, as the element's slot in ``graph.pred[DEAD]``.  A
    move e leads the start, and the memory-selection state of belief
    position p, to state p of element e.  ``element(name)``,
    ``elements`` and the named, playable ``pomdp`` are built on demand.
    Branches with equal signatures share one ``moves`` tuple and one
    ``available`` set, so these objects must never be mutated.
    """

    mode: str
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    available: dict[str, frozenset[str]]
    ranges: list[range]
    origin: array
    model_rows: tuple[tuple[tuple[int, ...], ...], ...]
    prio: list[int]
    root: str
    initial_moves: tuple[str, ...]
    keys: dict[str, ElementKey]
    state_names: tuple[str, ...]
    memsel: dict[tuple[str, str, str], str]
    moves: dict[str, tuple[str, ...]]
    stands_for: list[Sequence[int]]
    graph: ObsGraph
    init_obs: ClassVar[str] = "o_start"
    sink_obs: ClassVar[str] = "o_dead"

    def successors(self, i: int, j: int, action: str) -> tuple[int, ...]:
        """The successor ids of state ``i``, observed as ``observations[j]``,
        under an action available there."""
        o, ranges = self.observations[j], self.ranges
        block = self.rows.get((o, action))
        if block is not None:
            return block[i - ranges[j].start]
        if j == DEAD or o in self.keys:
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
        g, names = self.graph, self.graph.observations
        index = {a: i for i, a in enumerate(self.actions)}
        branches: dict[int, dict[int, int]] = {}  # slot -> model state -> id
        for c in itertools.compress(range(len(g.moving)), g.moving):
            for k, q in zip(g.pred[c], self.stands_for[c]):  # none at START
                ids = self.ranges[q]
                branches.setdefault(k, {}).update(
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
        commit, so there the set is empty.  Elements are the graph's
        observations that select no move, but the sink, in ``keys`` order.
        """
        g = self.graph
        elements = zip((g.members[j] for j, sel in enumerate(g.moving)
                        if not sel and j != DEAD), self.keys.values())
        return frozenset(i for ids, (belief, brec, _) in elements
                         for i, s in zip(ids, belief) if s in brec)


@dataclass
class ObsGraph:
    """Which observations each available (observation, action) can lead to.

    The one form the solve fixpoints read, over integer ids: observation
    j is ``observations[j]`` and owns the action slots ``slots[j]``, one
    per available action; slot k plays ``acts[k]`` at observation
    ``owner[k]``.  ``pred[j]`` lists, once each, the slots that can lead
    to observation j, as a C int array.  ``members[j]`` lists observation
    j's state ids (a ``Pomdp``'s state indices, a rewrite's range).
    ``moving[j]`` marks a rewrite's initial and memory-selection
    observations, whose slots are its move slots: a move slot naming
    element e leads state p of its observation to state p of e.  The move
    slots naming e are exactly ``pred[e]``; no other observation's
    ``pred`` holds one, and a ``Pomdp`` has none.  Every other edge is
    reversed in ``into``: ``into[j]`` holds one entry ``(k, (reach,
    bounds))`` per slot k in ``pred[j]``: state ``members[j][q]`` can be
    reached under k from ``members[owner[k]][p]`` for each p in
    ``reach[bounds[2 * q]:bounds[2 * q + 1]]``.  Sources are positions,
    so a rewrite's branches share their split's template uncopied;
    elements, reached only by move slots, have no entries.

    A rewrite's graph is a quotient of its playable model.  Each class
    of memory-selection branches with equal signature and new belief,
    which the construction gives one offered tuple, is one observation:
    its states are the new belief (its first branch's ids), its move
    slots the offered elements, its ``pred`` and ``into`` the element
    slots of all its branches.  The losing sink, whose every action leads
    back to it, keeps one self-loop slot.  The quotient is exact.  A move
    slot leads state p only to state p of the element it names, so
    whether it is live depends only on that element; a class's branches
    offer the same elements over the same belief, so they always have the
    same live slots and, position by position, the same successors.  Both
    cores thus keep or drop them together, in the same round, and put
    their states into X in the same inner step: the sets, ranks, round
    and step counts and live slots, read back per branch, are those of
    the playable model.

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
    into: list[Sequence[tuple[int, tuple[array, array]]]]

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


def _template(into: Mapping[int, list[int]], targets: Iterable[int]
              ) -> tuple[array, array]:
    """A reverse template: per target state, in order, the source
    positions ``into`` it, concatenated, and the bounds of each run."""
    reach, bounds = array("i"), array("i")
    for t in targets:
        bounds.append(len(reach))
        reach.fromlist(into.get(t, []))
        bounds.append(len(reach))
    return reach, bounds


def obs_graph(model: Pomdp) -> ObsGraph:
    """The observation graph of a model's available actions, compiled
    from ``Pomdp.index_supports`` by walking the rows of every state; each
    observation's slots are in ``model.actions`` order.  A rewrite's graph
    is written by its construction (``bo.graph``)."""
    (obs_of, table), sidx = model.index_supports, model.state_index
    members = [[sidx[s] for s in model.states_with_obs(o)]
               for o in model.observations]
    acts, owner, slots = [], [], []
    pred, into = [array("i") for _ in members], [[] for _ in members]
    for j, o in enumerate(model.observations):
        here = [a for a in model.actions if a in model.available[o]]
        slots.append(range(len(acts), len(acts) + len(here)))
        for k, a in zip(slots[j], here):
            acts.append(a)
            owner.append(j)
            col = model.action_index[a]
            reach: dict[int, list[int]] = {}  # target state -> positions
            for p, s in enumerate(members[j]):
                for t in table[s][col]:
                    reach.setdefault(t, []).append(p)
            for i in sorted({obs_of[t] for t in reach}):
                pred[i].append(k)
                into[i].append((k, _template(reach, members[i])))
    return ObsGraph(model.observations, slots, acts, owner, pred, members,
                    bytearray(len(members)), into)


def _branches(rows: Sequence[Sequence[tuple[int, ...]]], obs_of: Sequence[int],
              belief: tuple[int, ...], action: int) -> list[tuple]:
    """The branches of a belief under an action, by observation index:
    the observation, the new belief as a tuple and as an array, and its
    reverse template over the belief's positions."""
    into: dict[int, list[int]] = {}
    for p, s in enumerate(belief):
        for t in rows[s][action]:
            into.setdefault(t, []).append(p)
    out = []
    for o, new in itertools.groupby(sorted(sorted(into), key=obs_of.__getitem__),
                                    obs_of.__getitem__):
        new = tuple(new)
        out.append((o, new, array("i", new), _template(into, new)))
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

    init_obs, sink_obs = BeliefObsPomdp.init_obs, BeliefObsPomdp.sink_obs
    # per observation id its name and state ids, then state id -> its
    # model state index, written as ids are numbered
    observations: list[str] = [init_obs, sink_obs]
    ranges = [range(START, START + 1), range(DEAD, DEAD + 1)]
    origin = array("i", [-1, -1])
    # the observation graph, written alongside: per graph observation its
    # name, the observation ids it stands for, its states, slots, pred and
    # reverse entries; START and DEAD keep their ids
    gnames, stands_for = [init_obs, sink_obs], [(START,), (DEAD,)]
    members, moving = ranges[:], bytearray([1, 0])
    slots, acts, owner = [range(0), range(0)], [], []
    pred: list[Sequence[int]] = [array("i"), array("i")]
    into: list[Sequence[tuple]] = [(), ()]
    # (slot, belief size) of each disallowed (element, action)
    dead: list[tuple[int, int]] = []
    available: dict[str, frozenset[str]] = {}
    memsel: dict[tuple[str, str, str], str] = {}
    moves: dict[str, tuple[str, ...]] = {}
    # (action, class tables) -> the cap tables: per state the intersection
    # of the tables of the states that reach it under the action
    cap_memo: dict[tuple, tuple[frozenset[frozenset[int]], ...]] = {}
    # (belief, action) -> _branches
    split_memo: dict[tuple, list[tuple]] = {}
    # (forced commitments, cap tables, new belief) -> the class's graph id,
    # offered names and their set, shared by its branches
    branch_memo: dict[tuple, tuple[int, tuple[str, ...], frozenset[str]]] = {}
    # (graph id, key) of each element; walked in order as it grows
    frontier: list[tuple[int, ElementKey]] = []

    def add_obs(name: str) -> int:
        """Number an observation; its states come later."""
        observations.append(name)
        ranges.append(range(0))
        return len(observations) - 1

    def add_states(j: int, belief: Sequence[int]) -> range:
        """Number an observation's states, one per belief state."""
        base = len(origin)
        origin.extend(belief)
        ranges[j] = range(base, len(origin))
        if len(origin) > budget:
            raise ResourceLimitError(
                f"belief-observation construction exceeded its {budget}-state "
                f"budget ({len(origin)} states constructed)")
        return ranges[j]

    def add_node(name: str, stands: Sequence[int], states: range,
                 selecting: int, back: Sequence[tuple]) -> int:
        """Number a graph observation; its slots come later."""
        gnames.append(name)
        stands_for.append(stands)
        members.append(states)
        moving.append(selecting)
        slots.append(range(0))
        pred.append(array("i"))
        into.append(back)
        return len(gnames) - 1

    def add_slots(j: int, names: Sequence[str],
                  targets: Sequence[int] = ()) -> int:
        """Number a graph observation's action slots, as move slots to the
        elements ``targets`` if given; the first."""
        slots[j] = range(len(acts), len(acts) + len(names))
        acts.extend(names)
        owner.extend([j] * len(names))
        for k, e in zip(slots[j], targets):
            pred[e].append(k)
        return slots[j].start

    def add_element(key: ElementKey) -> int:
        """Intern an element; number its action-selection states, which
        have no reverse entries, and queue it; its graph id."""
        known = elem_obs.get(key)
        if known is not None:
            return known
        ename = fresh_name(f"m{len(elem_obs)}", taken_actions)
        keys[ename] = key
        j = add_obs(ename)
        e = elem_obs[key] = add_node(ename, (j,), add_states(j, key[0]), 0, ())
        frontier.append((e, key))
        return e

    # model observation index -> its available actions, by index and name
    playable: dict[int, tuple[list[int], list[str], frozenset[str]]] = {}
    for o, row in zip(obs_of, rows):
        here = [a for a, successors in enumerate(row) if successors]
        names = [action_names[a] for a in here]
        playable.setdefault(o, (here, names, frozenset(names)))

    # the rule's moves into {root}, nothing forced: co-Buchi elements
    # certify that only {2}-recurrences are reachable from the root, so its
    # cap is {{2}}; one state has at most two options
    r = pomdp.state_index[root]
    caps = [_TOP[mode]] * len(prio)
    if mode == COBUCHI_MODE:
        caps[r] = _GOOD2
    initial = tuple(map(add_element, _explore_or_commit(
        prio, frozenset(), tuple(caps), (r,), 2)))
    initial_moves = tuple(map(gnames.__getitem__, initial))
    available[init_obs] = frozenset(initial_moves)
    add_slots(START, initial_moves, initial)

    for je, (belief, brec, tables) in frontier:
        ename = gnames[je]
        committed = brec.intersection(belief)
        here, names, available[ename] = playable[obs_of[belief[0]]]
        for k, a in enumerate(here, add_slots(je, names)):
            # disallowed if a committed belief state, which certifies a
            # priority-2 recurrence, reaches a state of another priority
            forced = frozenset(t for s in committed for t in rows[s][a])
            if any(prio[t] != 2 for t in forced):
                dead.append((k, len(belief)))
                continue
            caps = cap_memo.get((a, tables))
            if caps is None:
                caps = [_TOP[mode]] * len(rows)
                for row, table in zip(rows, tables):
                    for t in row[a]:
                        caps[t] &= table
                caps = cap_memo[(a, tables)] = tuple(caps)
            aname = action_names[a]
            split = split_memo.get((belief, a))
            if split is None:
                split = split_memo[(belief, a)] = _branches(
                    rows, obs_of, belief, a)
            for o, new_belief, states, template in split:
                qname = f"q{len(memsel)}"
                memsel[(ename, aname, pomdp.observations[o])] = qname
                q = add_obs(qname)
                branch = (forced, caps, new_belief)
                cls = branch_memo.get(branch)
                if cls is None:
                    made = tuple(map(add_element, _explore_or_commit(
                        prio, *branch, budget)))
                    offered = tuple(map(gnames.__getitem__, made))
                    c = add_node(qname, array("i"), add_states(q, states), 1, [])
                    add_slots(c, offered, made)
                    cls = branch_memo[branch] = (c, offered, frozenset(offered))
                else:
                    add_states(q, states)
                c, moves[qname], available[qname] = cls
                stands_for[c].append(q)
                pred[c].append(k)
                into[c].append((k, template))

    all_actions = action_names + tuple(keys)
    available[sink_obs] = frozenset(all_actions)
    # the sink's entries, known last: the states of disallowed (element,
    # action)s, and the sink itself under one slot for all its actions
    templates = {n: (array("i", range(n)), array("i", [0, n]))
                 for n in {1}.union(size for _, size in dead)}
    into[DEAD] = [(k, templates[size]) for k, size in
                  dead + [(add_slots(DEAD, all_actions[:1]), 1)]]
    pred[DEAD].extend(k for k, _ in into[DEAD])

    return BeliefObsPomdp(
        mode=mode, actions=all_actions, observations=tuple(observations),
        available=available, ranges=ranges, origin=origin, model_rows=rows,
        prio=prio, root=root, initial_moves=initial_moves, keys=keys,
        state_names=pomdp.states, memsel=memsel, moves=moves,
        stands_for=stands_for,
        graph=ObsGraph(tuple(gnames), slots, acts, owner, pred, members,
                       moving, into))


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
