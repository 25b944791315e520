"""Decision procedures for finite-memory almost-sure and positive winning.

The pipelines answer whether a finite-memory strategy can win a parity
objective almost-surely or with positive probability, and on yes extract a
witness strategy that is verified once, via the chain module, on the model
the caller gave, before the answer is returned.

The workhorses are observation-set fixpoints on belief-observation POMDPs
(where the belief always equals the observation class, so memoryless
strategies suffice):

* ``almost_safe``  -- greatest fixpoint  Y* = nu Y.(ObsCover(F) & Pre(Y));
* ``almost_buchi`` -- nested fixpoint
  Z* = nu Z. ObsCover(mu X.((T & inv(Z) & inv(Pre(Z))) | Apre(Z,X)));
* ``almost_reach`` -- Buchi after making the targets absorbing.

All of them are worklist attractors over per-observation counts of live
action slots, on one integer observation graph per model
(``beliefobs.ObsGraph``): the quotient a rewrite's construction writes,
one observation per class of equal memory-selection branches, or one
walked over a ``Pomdp``'s supports.  They start from a bitmap over
observation ids and return the bitmap of their set, the bitmap of the
slots it keeps live (the play table of their strategy), and the removal
rank of every other observation: the round in which the round-by-round
iteration removes it, so each fixpoint takes max rank + 1 rounds
(``fixpoint_iterations`` sums the safety and outer Buchi rounds).
Safety is one pass; the Buchi fixpoint keeps its outer rounds, updates
its counters as Z shrinks, and grows X backwards over the graph's
reverse entries and over a rewrite's element moves, walked by belief
position.  Names are made only for a witness and the diagnostics, which
name every branch of a kept class.

``solve_almost_cobuchi_fm`` rewrites a {1,2}-priority POMDP with the
belief-observation construction, computes its almost-surely safe part (the
losing sink stays unreachable), and asks there, on the same graph, for
almost-sure reachability of the states certifying a won recurrence.
Those states are closed under every allowed action (the ``beliefobs``
commitment invariant), so it asks it as plain Buchi on them and copies
no model.  The safe part always holds the initial observation (also
proved in ``beliefobs``), so a "no" always fails at reachability.
``solve_positive_buchi_fm`` reduces positive winning to almost-sure
winning from some reachable state: a strategy wins with positive
probability exactly when it can, after some finite prefix, win almost
surely from wherever that prefix ends.  ``solve_parity_fm`` routes any
parity objective through the reductions module into their cores and
restricts the witness back (the reductions preserve strategies verbatim).
A witness is a support table, weighted only when written, checked once on
the caller's model and annotated with elements only on the direct route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .beliefobs import (
    DEAD,
    START,
    BeliefObsPomdp,
    DEFAULT_STATE_BUDGET,
    ObsGraph,
    almost_cobuchi_red,
    obs_graph,
    positive_buchi_red,
)
from .chain import build_product_chain, evaluate_qualitative
from .model import (
    ContractError,
    Objective,
    Pomdp,
    ResourceLimitError,
    WinningMode,
    fresh_name,
    known_states,
    make_absorbing,
    objective_as_parity,
)
from .reductions import (almost_parity_to_cobuchi, positive_parity_to_buchi,
                         restrict_strategy)
from .strategy import SupportStrategy


# -- observation-set operators: the tests' reference, called by no pipeline --

def allow(o: str, obs_set: Iterable[str], pomdp: Pomdp) -> frozenset[str]:
    """Actions available at ``o`` whose every successor observation stays in the set."""
    obs_set = frozenset(obs_set)
    return frozenset(a for a in pomdp.available_at(o) if all(
        pomdp.obs_map[t] in obs_set
        for s in pomdp.states_with_obs(o) for t in pomdp.supp(s, a)))


def pre(obs_set: Iterable[str], pomdp: Pomdp) -> frozenset[str]:
    """Observations of the set retaining at least one set-preserving action."""
    obs_set = frozenset(obs_set)
    return frozenset(o for o in obs_set if allow(o, obs_set, pomdp))


def apre(y_obs: Iterable[str], x_states: Iterable[str],
         pomdp: Pomdp) -> frozenset[str]:
    """States that can keep the observation in Y while hitting X with positive probability."""
    y_obs = frozenset(y_obs)
    x_states = frozenset(x_states)
    domain = {s for o in y_obs for s in pomdp.states_with_obs(o)}
    stray = x_states - domain
    if stray:
        raise ContractError(
            "apre requires X inside the observation classes of Y; outside: "
            + ", ".join(sorted(stray)))
    out = set()
    for o in y_obs:
        acts = allow(o, y_obs, pomdp)
        if not acts:
            continue
        for s in pomdp.states_with_obs(o):
            if any(x_states.intersection(pomdp.supp(s, a)) for a in acts):
                out.add(s)
    return frozenset(out)


def obs_cover(states: Iterable[str], pomdp: Pomdp) -> frozenset[str]:
    """Observations whose entire class lies inside the state set."""
    states = frozenset(states)
    return frozenset(o for o in pomdp.observations
                     if set(pomdp.states_with_obs(o)) <= states)


def _obs_strategy(pomdp: Pomdp, graph: ObsGraph, inside: bytearray, live: bytearray
                  ) -> tuple[frozenset[str], SupportStrategy | None]:
    """The observations a core kept, and their companion strategy, if any.

    A memoryless observation-based strategy as a finite-memory table: one
    memory per kept observation, playing its live slots' actions, which
    tracks the last observation: each live slot in ``graph.pred[j]`` moves
    to j.  It starts at the initial observation, or else the first kept.
    """
    kept, plays = graph.kept(inside, live)
    if not kept:
        return kept, None
    names, owner, acts = graph.observations, graph.owner, graph.acts
    update_support = {(names[owner[k]], names[j], acts[k]): (names[j],)
                      for j in itertools.compress(range(len(names)), inside)
                      for k in graph.pred[j] if live[k]}
    o0 = pomdp.obs_map[pomdp.initial_state]
    return kept, SupportStrategy(
        tuple(plays), {o: tuple(sorted(a)) for o, a in plays.items()},
        update_support, o0 if o0 in plays else next(iter(plays)))


def _safe_obs(graph: ObsGraph, start: bytearray, stats: dict | None = None,
              ) -> tuple[bytearray, bytearray, dict[int, int]]:
    """Fixpoint core of ``almost_safe``: the set and its live slots, and
    the removal rank of every observation that leaves it.

    One worklist pass from the ``start`` bitmap, ObsCover(F) for the safe
    states F.  An observation with no live slot goes, with rank 1 at the
    start and otherwise one more than the rank of the removal that killed
    its last slot: the round in which the round-by-round iteration
    removes it, so that iteration takes max rank + 1 rounds
    (``safety_iterations``).
    """
    inside = bytearray(start)
    live, count = graph.counters(inside)
    ranks: dict[int, int] = {}
    rounds = 1
    layer = [j for j, here in enumerate(inside) if here and not count[j]]
    while layer:
        for j in layer:
            inside[j] = 0
            ranks[j] = rounds
        layer = graph.kill(live, count, layer)
        rounds += 1
    if stats is not None:
        stats["safety_iterations"] = stats.get("safety_iterations", 0) + rounds
    return inside, live, ranks


def almost_safe(pomdp: Pomdp, safe_states: Iterable[str],
                stats: dict | None = None,
                ) -> tuple[frozenset[str], SupportStrategy | None]:
    """Observations from which staying inside the state set wins surely.

    Greatest fixpoint: start from the observations fully covered by the
    set, repeatedly drop observations with no covering-preserving action.
    The companion strategy plays every preserving action.  A state the
    model lacks is a ``StructuralError``.
    """
    safe = set(map(pomdp.state_index.__getitem__,
                   known_states(pomdp, safe_states, "safe set names")))
    graph = obs_graph(pomdp)
    return _obs_strategy(pomdp, graph, *_safe_obs(graph, bytearray(
        safe.issuperset(ids) for ids in graph.members), stats)[:2])


def _buchi_obs(graph: ObsGraph, start: bytearray, targets: frozenset[int],
               stats: dict | None = None,
               ) -> tuple[bytearray, bytearray, dict[int, int]]:
    """Fixpoint core of ``almost_buchi``: the set and its live slots, and
    the outer round that removes each observation.

    Z starts at the ``start`` bitmap, and the live counters follow it as
    it shrinks.  Each outer round grows X backwards from the ``targets``
    (state ids) through live slots (a dead slot never revives), as
    (observation, position) pairs: over the reverse entries, and over the
    move slots, the only ones leading to an element e: when state p of e
    joins X, so does state p of each live slot's owner in ``pred[e]``.  A
    target enters X whenever its observation keeps a slot, and otherwise
    its slots are all dead, so X never enters it from its own row.
    """
    owner, pred, members, moving, into = (graph.owner, graph.pred,
                                          graph.members, graph.moving, graph.into)
    inside = bytearray(start)
    live, count = graph.counters(inside)
    here = [j for j, got in enumerate(inside) if got]
    goals = [(j, p) for j in here for p, i in enumerate(members[j]) if i in targets]
    walks = {j: pred[j] for j in here if pred[j] and moving[owner[pred[j][0]]]}
    ranks: dict[int, int] = {}
    outer = inner = 0
    while True:
        outer += 1
        frontier = [(j, p) for j, p in goals if count[j]]
        x = {members[j][p] for j, p in frontier}
        while frontier:
            inner += 1
            nxt = []
            for j, q in frontier:
                steps = walks.get(j)
                if steps is None:
                    for k, (reach, bounds) in into[j]:
                        if live[k]:
                            o = owner[k]
                            for p in reach[bounds[2 * q]:bounds[2 * q + 1]]:
                                i = members[o][p]
                                if i not in x:
                                    x.add(i)
                                    nxt.append((o, p))
                    continue
                for k in steps:
                    i = members[owner[k]][q]
                    if live[k] and i not in x:
                        x.add(i)
                        nxt.append((owner[k], q))
            frontier = nxt
        removed = [j for j in here if inside[j]
                   and not all(map(x.__contains__, members[j]))]
        if not removed:
            break
        for j in removed:
            inside[j] = 0
            ranks[j] = outer
        graph.kill(live, count, removed)
    if stats is not None:
        stats["buchi_outer_iterations"] = stats.get(
            "buchi_outer_iterations", 0) + outer
        stats["buchi_inner_steps"] = stats.get("buchi_inner_steps", 0) + inner
    return inside, live, ranks


def almost_buchi(pomdp: Pomdp, targets: Iterable[str],
                 stats: dict | None = None,
                 ) -> tuple[frozenset[str], SupportStrategy | None]:
    """Observations from which the targets are hit infinitely often surely.

    Nested fixpoint: the outer set Z shrinks to the observations whose
    classes are fully contained in the inner limit X, where X grows from
    the in-Z targets by positive-probability attraction (``apre``) that
    never risks leaving Z.  The companion strategy plays every action of
    Allow(o, Z*); its recurrent classes all intersect the targets.  A
    target the model lacks is a ``StructuralError``.
    """
    targets = known_states(pomdp, targets, "targets name")
    graph = obs_graph(pomdp)
    return _obs_strategy(pomdp, graph, *_buchi_obs(
        graph, bytearray([1]) * len(pomdp.observations),
        frozenset(map(pomdp.state_index.__getitem__, targets)), stats)[:2])


def almost_reach(pomdp: Pomdp, targets: Iterable[str],
                 stats: dict | None = None,
                 ) -> tuple[frozenset[str], SupportStrategy | None]:
    """Observations from which the targets are reached with probability one.

    Reaching is the Buchi question on the model with absorbing targets:
    once reached, staying counts as visiting forever.
    """
    targets = frozenset(targets)
    return almost_buchi(make_absorbing(pomdp, targets), targets, stats)


# -- decisions -------------------------------------------------------------

@dataclass
class Decision:
    """Outcome of a solve pipeline.

    ``winning`` answers the decision problem; on yes, ``witness`` is the
    support table of a finite-memory strategy on the input model, checked
    once there by independent chain verification and annotated with
    elements only on the direct route; any weighting of it wins.
    ``diagnostics`` carries per-stage observation sets, construction sizes
    and fixpoint iteration counts.
    """

    winning: bool
    mode: WinningMode
    witness: SupportStrategy | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "yes" if self.winning else "no"


def _merge_initial(table: SupportStrategy,
                   first_moves: Iterable[str]) -> SupportStrategy:
    """Collapse a randomized initial memory choice into one memory state.

    The auxiliary memory unions the action supports of the candidate
    initial memories and, per (observation, action), the union of their
    update supports.  Every recurrent class of the merged chain is one of
    some candidate's chain and vice versa, so verdicts are preserved.
    """
    first_moves = tuple(dict.fromkeys(first_moves))
    acts, updates = table.action_support, table.update_support
    if len(first_moves) == 1:
        return replace(table, initial=first_moves[0])
    name = fresh_name("m_init", set(table.memories))
    played: set[str] = set()
    for m in first_moves:
        played.update(acts.get(m, ()))
    unions: dict[tuple[str, str, str], set[str]] = {}
    for (m, o, a), targets in updates.items():
        if m in first_moves and a in acts.get(m, ()):
            unions.setdefault((name, o, a), set()).update(targets)
    return SupportStrategy(
        table.memories + (name,), {**acts, name: tuple(sorted(played))},
        {**updates, **{k: tuple(sorted(ms)) for k, ms in unions.items()}},
        name)


def _witness_from_plays(pomdp: Pomdp, bo: BeliefObsPomdp, inside: bytearray,
                        live: bytearray) -> SupportStrategy:
    """Back-translate a play table on the rewrite into a strategy.

    The table is the live slots of the graph observations ``inside``
    marks, never the sink: co-Buchi safety starts without it, and it has
    no target and only itself as successor, so Buchi drops it in round 1.
    Memories are the element observations inside; the action
    choice replays their slots, and the memory update at (element, model
    observation, action) replays the slots of the class that the
    element's slot leads to on that observation: each live slot in a
    class's ``pred`` is one branch, on the observation of the class's
    states.  The table's element moves at the initial observation, a
    randomization, are merged into a single auxiliary memory.  The table
    is bare: ``_finish`` annotates it, on the direct route only, and
    checks it.
    """
    graph, obs_of = bo.graph, pomdp.index_supports[0]
    slots, acts, owner, pred = graph.slots, graph.acts, graph.owner, graph.pred
    names = graph.observations

    def played(j: int) -> tuple[str, ...]:
        ks = slots[j]
        return tuple(sorted(itertools.compress(acts[ks.start:ks.stop],
                                               live[ks.start:ks.stop])))

    memories: list[str] = []
    action_support, update_support = {}, {}
    for j in itertools.compress(range(len(inside)), inside):
        if not graph.moving[j]:
            memories.append(names[j])
            action_support[names[j]] = played(j)
        elif j != START:
            moves = played(j)
            o = pomdp.observations[obs_of[bo.origin[graph.members[j][0]]]]
            for k in pred[j]:
                if live[k]:
                    update_support[(names[owner[k]], o, acts[k])] = moves
    table = SupportStrategy(tuple(memories), action_support, update_support,
                            memories[0])
    return _merge_initial(table, played(START))


def _named(bo: BeliefObsPomdp, inside: bytearray) -> frozenset[str]:
    """The observations that the graph observations ``inside`` marks stand for."""
    return frozenset(bo.observations[q] for c in itertools.compress(
        range(len(inside)), inside) for q in bo.stands_for[c])


def _finish(pomdp: Pomdp, objective: Objective, decision: Decision,
            bo: BeliefObsPomdp | None) -> Decision:
    """Annotate (from ``bo``) or restrict a core's witness; chain-check it
    once."""
    table = decision.witness
    if table is not None:
        table = (restrict_strategy(pomdp, table) if bo is None else replace(
            table, elements={m: bo.element(m) for m in table.memories
                             if m in bo.keys}))
        chain = build_product_chain(pomdp, table)
        if not evaluate_qualitative(chain, objective, decision.mode):
            raise ContractError(
                "internal error: extracted witness failed independent "
                "chain verification; refusing to answer yes")
        decision.witness = table
    return decision


def solve_almost_cobuchi_fm(pomdp: Pomdp, priority: Mapping[str, int],
                            budget: int = DEFAULT_STATE_BUDGET) -> Decision:
    """Decide finite-memory almost-sure winning for co-Buchi priorities {1,2}.

    Pipeline: belief-observation rewrite; almost-sure safety restriction
    (the losing sink must be avoidable surely); almost-sure reachability
    of the certified-recurrence states, which is Buchi on them since they
    are closed.  On yes the witness is rebuilt on the input model and
    chain-verified before returning.  The safety stage decides nothing:
    each observation the reach stage keeps keeps a slot into its set, so
    run from every observation but the sink it keeps the same set.  The
    stage shapes only ``fixpoint_iterations``, ``safe_observations`` and
    the witness's memories.
    """
    return _finish(pomdp, Objective.parity(dict(priority)),
                   *_almost_cobuchi(pomdp, priority, budget))


def _almost_cobuchi(pomdp: Pomdp, priority: Mapping[str, int], budget: int
                    ) -> tuple[Decision, BeliefObsPomdp]:
    """``solve_almost_cobuchi_fm`` unchecked, bare, and its rewrite."""
    stats: dict = {}
    bo = almost_cobuchi_red(pomdp, priority, budget=budget)
    stats["states_constructed"] = len(bo.origin)
    mode = WinningMode.ALMOST_SURE
    graph = bo.graph
    # ObsCover of every state but the losing sink
    y_safe, safe_live, _ = _safe_obs(graph, bytearray(
        j != DEAD for j in range(len(graph.observations))), stats)
    stats["safe_observations"] = _named(bo, y_safe)
    # Reachability of the closed set wpr inside the safe part: Buchi on it,
    # from the safe part, whose live slots are the safe plays.
    wpr = bo.certified_recurrent()
    w2, live, _ = _buchi_obs(graph, y_safe, wpr, stats)
    stats["winning_observations"] = _named(bo, w2)
    if not w2[START]:
        stats["failed_stage"] = "reachability"
        return Decision(False, mode, diagnostics=stats), bo
    # where the reach stage gave an observation up, play its safe slots
    for j in itertools.compress(range(len(w2)), y_safe):
        if not w2[j]:
            ks = graph.slots[j]
            live[ks.start:ks.stop] = safe_live[ks.start:ks.stop]
    return Decision(True, mode, _witness_from_plays(pomdp, bo, y_safe, live),
                    stats), bo


def _support_paths(pomdp: Pomdp) -> dict[int, tuple[str, ...]]:
    """A shortest action path to each state index reachable through supports.

    Breadth-first over ``Pomdp.index_supports``, actions and successors in
    index order, so no path depends on how a distribution lists its states.
    """
    rows, actions = pomdp.index_supports[1], pomdp.actions
    root = pomdp.state_index[pomdp.initial_state]
    paths = {root: ()}
    queue = [root]
    for s in queue:
        for a, successors in enumerate(rows[s]):
            for t in sorted(successors):
                if t not in paths:
                    paths[t] = paths[s] + (actions[a],)
                    queue.append(t)
    return paths


def _prefix_then(pomdp: Pomdp, steps: tuple[str, ...],
                 table: SupportStrategy) -> SupportStrategy:
    """Play a fixed action sequence, then hand over to a strategy.

    The prefix memories count steps; each plays its action surely and
    advances on any observation.  Handing over means the last prefix
    update targets the strategy's initial memory on every branch, so a
    branch off the support path can hand over where that memory plays
    nothing: a pair with no successor.  The positive witness still
    verifies, since the path's own branch has positive probability and
    reaches only good classes, and a stopped pair only adds a bad class.
    """
    if not steps:
        return table
    taken = set(table.memories)
    names = [fresh_name(f"p{i}", taken) for i in range(len(steps))]
    action_support = dict(table.action_support)
    update_support = dict(table.update_support)
    for i, a in enumerate(steps):
        action_support[names[i]] = (a,)
        nxt = names[i + 1] if i + 1 < len(steps) else table.initial
        for o in pomdp.observations:
            update_support[(names[i], o, a)] = (nxt,)
    return SupportStrategy(tuple(names) + table.memories, action_support,
                           update_support, names[0])


def solve_positive_buchi_fm(pomdp: Pomdp, priority: Mapping[str, int],
                            budget: int = DEFAULT_STATE_BUDGET) -> Decision:
    """Decide finite-memory positive winning for Buchi priorities {0,1}.

    A strategy wins with positive probability exactly when some state
    reachable through transition supports admits an almost-sure win from
    there (knowing the state): sufficiency follows by playing any
    positive-probability path first, necessity by restarting a positive
    winner inside one of its winning recurrent classes.  Each candidate
    root is checked with the belief-observation rewrite and the
    almost-sure Buchi fixpoint.  ``budget`` bounds the states constructed
    over all roots together.
    """
    return _finish(pomdp, Objective.parity(dict(priority)),
                   *_positive_buchi(pomdp, priority, budget))


def _positive_buchi(pomdp: Pomdp, priority: Mapping[str, int], budget: int
                    ) -> tuple[Decision, BeliefObsPomdp | None]:
    """``solve_positive_buchi_fm`` unchecked, bare, and its rewrite."""
    stats: dict = {"states_constructed": 0, "roots_tried": 0}
    mode = WinningMode.POSITIVE
    paths = _support_paths(pomdp)
    for t in sorted(paths):
        stats["roots_tried"] += 1
        built, root = stats["states_constructed"], pomdp.states[t]
        try:
            bo = positive_buchi_red(pomdp, priority, root=root, budget=budget - built)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"root {root!r}: {exc}, after {built} states "
                                     f"for earlier roots of {budget}") from None
        stats["states_constructed"] += len(bo.origin)
        zero = {s for s, p in enumerate(bo.prio) if p == 0}
        targets = frozenset(i for i, s in enumerate(bo.origin) if s in zero)
        z, live, _ = _buchi_obs(bo.graph, bytearray([1]) * len(
            bo.graph.observations), targets, stats)
        if not z[START]:
            continue
        stats["winning_root"] = root
        stats["winning_observations"] = _named(bo, z)
        return Decision(True, mode, _prefix_then(
            pomdp, paths[t], _witness_from_plays(pomdp, bo, z, live)),
            stats), bo
    stats["failed_stage"] = "no almost-sure root"
    return Decision(False, mode, diagnostics=stats), None


def solve_parity_fm(pomdp: Pomdp, objective: Objective,
                    mode: WinningMode,
                    budget: int = DEFAULT_STATE_BUDGET) -> Decision:
    """Decide finite-memory winning for any parity-expressible objective.

    Reach/safe/Buchi/co-Buchi objectives are first expressed as parity
    (``objective_as_parity``).  Priorities already in co-Buchi shape
    {1,2} (almost-sure) or Buchi shape {0,1} (positive) run their
    pipeline directly.  Other almost-sure parity runs through the
    co-Buchi rewrite chain, positive parity through the Buchi rewrite,
    into the matching core; both preserve strategies verbatim, so the bare
    witness of the reduced model is restricted to the input model
    (``reductions.restrict_strategy``) and verified once, there.
    """
    if mode not in (WinningMode.ALMOST_SURE, WinningMode.POSITIVE):
        raise ContractError(f"unsupported winning mode {mode!r}")
    almost = mode is WinningMode.ALMOST_SURE
    core = _almost_cobuchi if almost else _positive_buchi
    base, parity = objective_as_parity(pomdp, objective)
    if set(parity.priority_map.values()) <= ({1, 2} if almost else {0, 1}):
        return _finish(base, parity, *core(base, parity.priority_map, budget))
    red = (almost_parity_to_cobuchi if almost
           else positive_parity_to_buchi)(base, parity)
    model, shaped = objective_as_parity(red.pomdp, red.objective)
    decision, _ = core(model, shaped.priority_map, budget)
    decision.diagnostics["reduced_states"] = len(red.pomdp.states)
    return _finish(base, parity, decision, None)
