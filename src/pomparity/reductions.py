"""Objective-simplifying POMDP reductions.

Each construction here rewrites a parity objective into a simpler one on a
derived model while preserving exactly which finite-memory strategies win.
The derived models keep the original observations on copied states, so a
strategy (strategies only ever read observations) transfers across with its
verdict intact; ``transfer_strategy`` completes it with self-updates on the
fresh singleton observations of the auxiliary states, which is the only part
of the reduced signature an original-model strategy does not already cover,
and ``restrict_strategy`` drops such rows again on the way back:

* ``positive_parity_to_buchi`` -- positive winning for parity becomes
  positive winning for a Buchi objective on an indexed-copy state space.
* ``parity_to_three`` -- almost-sure parity with an arbitrary priority
  range becomes almost-sure parity with priorities {0,1,2}.
* ``three_to_cobuchi`` -- almost-sure parity over {0,1,2} becomes
  almost-sure co-Buchi.
* ``almost_parity_to_cobuchi`` -- composition of the previous two.

All three rewrites are one claim-copy construction (``_copies``).  Copy i
of the state space claims a priority (2i; 1 for the single copy of
``three_to_cobuchi``) and copies every available row, observed as the
original state.  A state of priority worse (numerically smaller) than its
copy's claim keeps only half of each row there; the other half abandons
the claim, to a sink or one copy down, so surviving forever in copy i
forces the claim to be eventually honest.  Fresh auxiliary states always
get fresh singleton observations; halved weights stay exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .model import (
    ContractError,
    Objective,
    PARITY,
    Pomdp,
    fresh_name,
)
from .strategy import SupportStrategy

HALF = Fraction(1, 2)

# state_origin markers for states that have no originating state
ROLE_INITIAL = "initial"
ROLE_SINK = "sink"


@dataclass(frozen=True)
class ReductionOutput:
    """A reduced model, its new objective, and the state bookkeeping.

    ``state_origin`` maps every new state name to ``(original_state,
    copy_index)`` or, for freshly introduced auxiliary states, to
    ``(None, role)`` with role one of ``ROLE_INITIAL``/``ROLE_SINK``.
    Within each copy index the map is injective and covers all original
    states.
    """

    pomdp: Pomdp
    objective: Objective
    state_origin: dict[str, tuple[str | None, int | str]]

    def copy_states(self, index: int) -> dict[str, str]:
        """Original-state -> new-state map for one copy index."""
        return {orig: new for new, (orig, i) in self.state_origin.items()
                if orig is not None and i == index}

    def fresh_states(self) -> dict[str, str]:
        """Role -> new-state map for the auxiliary states."""
        return {role: new for new, (orig, role) in self.state_origin.items()
                if orig is None}


def transfer_strategy(output: ReductionOutput, strategy) -> SupportStrategy:
    """Complete a strategy of the original model for a reduced model.

    The reduced model emits every original observation plus fresh singleton
    observations for its auxiliary states; there the strategy's support
    table is completed with self-updates (the memory stays put), the
    completion under which verdicts transfer.  A missing update would
    instead cut the product-chain edge into the auxiliary state, spuriously
    turning the leaking class into a recurrent one.  Existing entries are
    never overwritten, so strategies already speaking the reduced signature
    pass through unchanged.
    """
    table = strategy.supports
    fresh_obs = sorted(output.pomdp.obs_map[new]
                       for new in output.fresh_states().values())
    update = dict(table.update_support)
    for m in table.memories:
        for o in fresh_obs:
            for a in table.action_support.get(m, ()):
                update.setdefault((m, o, a), (m,))
    return SupportStrategy(table.memories, table.action_support, update,
                           table.initial, table.elements)


def restrict_strategy(pomdp: Pomdp, strategy) -> SupportStrategy:
    """Replay a strategy of a reduced model on the model it reduces.

    The inverse of ``transfer_strategy``: it drops the update rows for
    observations ``pomdp`` lacks (those of auxiliary states), and the
    element annotations, which describe the reduced state space.
    """
    table = strategy.supports
    keep = set(pomdp.observations)
    return SupportStrategy(
        table.memories, table.action_support,
        {k: ms for k, ms in table.update_support.items() if k[1] in keep},
        table.initial)


def _priority_table(pomdp: Pomdp, objective: Objective) -> dict[str, int]:
    if objective.kind != PARITY:
        raise ContractError(
            f"reduction needs a parity objective, got {objective.kind!r}")
    table = objective.priority_map
    missing = [s for s in pomdp.states if s not in table]
    if missing:
        raise ContractError(
            "parity objective assigns no priority to: " + ", ".join(missing))
    return table


def _copies(pomdp: Pomdp, prio: dict[str, int], claims: list[int],
            name: dict[tuple[str, int], str],
            leak: Callable[[Mapping[str, Fraction], int], dict[str, Fraction]]):
    """Copy i of state s, ``name[s, i]``, claims ``claims[i]`` (module
    docstring); ``leak(dist, i)`` is where a halved row's other half goes.
    Returns the copies' origins, observation map and rows."""
    origin: dict[str, tuple[str | None, int | str]] = {
        new: key for key, new in name.items()}
    obs_map = {new: pomdp.obs_map[s] for new, (s, _) in origin.items()}
    transitions: dict[tuple[str, str], dict[str, Fraction]] = {}
    for s in pomdp.states:
        for a in pomdp.available_at(pomdp.obs_map[s]):
            dist = pomdp.dist(s, a)
            for i, claim in enumerate(claims):
                if prio[s] >= claim:
                    row = {name[t, i]: w for t, w in dist.items()}
                else:
                    row = {name[t, i]: w * HALF for t, w in dist.items()}
                    row.update(leak(dist, i))
                transitions[(name[s, i], a)] = row
    return origin, obs_map, transitions


def positive_parity_to_buchi(pomdp: Pomdp, objective: Objective) -> ReductionOutput:
    """Rewrite positive-parity winning as positive-Buchi winning.

    Copies ``s@i`` for i in {0..d} claim 2i and leak to a rejecting sink;
    2d bounds the priority range, rounded up to even (unused priorities
    never change the winners).  A fresh initial state scatters uniformly
    over the copies of the original initial successors.  The Buchi target
    is every copy state whose priority equals its copy's claim.

    A finite-memory strategy is positive winning on the input iff the same
    strategy (same memories, same updates) is positive winning on the
    output.
    """
    prio = _priority_table(pomdp, objective)
    d = (objective.max_priority + 1) // 2
    copies = range(d + 1)

    copy_name = {(s, i): f"{s}@{i}" for s in pomdp.states for i in copies}
    taken = set(copy_name.values())
    init = fresh_name("init", taken)
    sink = fresh_name("sink", taken)

    obs_taken = set(pomdp.observations)
    init_obs = fresh_name("o_init", obs_taken)
    sink_obs = fresh_name("o_sink", obs_taken)

    origin, obs_map, transitions = _copies(
        pomdp, prio, [2 * i for i in copies], copy_name,
        lambda dist, i: {sink: HALF})
    states = (init,) + tuple(origin) + (sink,)
    observations = pomdp.observations + (init_obs, sink_obs)
    obs_map[init] = init_obs
    obs_map[sink] = sink_obs

    init_avail = pomdp.available_at(pomdp.obs_map[pomdp.initial_state])
    available = dict(pomdp.available)
    available[init_obs] = init_avail

    share = Fraction(1, d + 1)
    for a in init_avail:
        row: dict[str, Fraction] = {}
        for t, w in pomdp.dist(pomdp.initial_state, a).items():
            for i in copies:
                row[copy_name[(t, i)]] = w * share
        transitions[(init, a)] = row
    for a in pomdp.actions:
        transitions[(sink, a)] = {sink: Fraction(1)}

    reduced = Pomdp(states=states, actions=pomdp.actions,
                    observations=observations, obs_map=obs_map,
                    transitions=transitions, initial_state=init,
                    available=available)
    targets = frozenset(copy_name[(s, i)]
                        for s in pomdp.states for i in copies
                        if prio[s] == 2 * i)
    origin = {init: (None, ROLE_INITIAL), sink: (None, ROLE_SINK), **origin}
    return ReductionOutput(reduced, Objective.buchi(targets), origin)


def parity_to_three(pomdp: Pomdp, objective: Objective) -> ReductionOutput:
    """Rewrite almost-sure parity into almost-sure parity over {0,1,2}.

    Copies ``s@i`` for i in {0..d}, 2d+1 bounding the priority range, claim
    2i and leak one copy down; play starts in the top copy.  Copy-i states
    of priority 2i get priority 0, those of 2i+1 priority 1, all else 2.

    A finite-memory strategy is almost-sure winning on the input iff the
    same strategy is almost-sure winning on the output.
    """
    prio = _priority_table(pomdp, objective)
    d = objective.max_priority // 2
    copies = range(d + 1)

    copy_name = {(s, i): f"{s}@{i}" for s in pomdp.states for i in copies}
    origin, obs_map, transitions = _copies(
        pomdp, prio, [2 * i for i in copies], copy_name,
        lambda dist, i: {copy_name[(t, i - 1)]: w * HALF
                         for t, w in dist.items()})

    reduced = Pomdp(states=tuple(origin), actions=pomdp.actions,
                    observations=pomdp.observations, obs_map=obs_map,
                    transitions=transitions,
                    initial_state=copy_name[(pomdp.initial_state, d)],
                    available=dict(pomdp.available))

    def squeeze(s: str, i: int) -> int:
        if prio[s] == 2 * i:
            return 0
        if prio[s] == 2 * i + 1:
            return 1
        return 2

    priorities = {new: squeeze(s, i) for new, (s, i) in origin.items()}
    return ReductionOutput(reduced, Objective.parity(priorities), origin)


def three_to_cobuchi(pomdp: Pomdp, objective: Objective) -> ReductionOutput:
    """Rewrite almost-sure parity over {0,1,2} into almost-sure co-Buchi.

    The single copy keeps the state names and claims 1, so priority-0
    states leak to a fresh absorbing sink, which is allowed: seeing
    priority 0 infinitely often means falling into it.  The co-Buchi
    allowed set is everything except the priority-1 states.

    A finite-memory strategy is almost-sure winning on the input iff the
    same strategy is almost-sure winning on the output.
    """
    prio = _priority_table(pomdp, objective)
    out_of_range = sorted(s for s in pomdp.states if prio[s] not in (0, 1, 2))
    if out_of_range:
        raise ContractError(
            "co-Buchi rewrite needs priorities in {0,1,2}; offending states: "
            + ", ".join(out_of_range))

    sink = fresh_name("sink", set(pomdp.states))
    sink_obs = fresh_name("o_sink", set(pomdp.observations))
    origin, obs_map, transitions = _copies(
        pomdp, prio, [1], {(s, 0): s for s in pomdp.states},
        lambda dist, i: {sink: HALF})
    states = pomdp.states + (sink,)
    observations = pomdp.observations + (sink_obs,)
    obs_map[sink] = sink_obs
    for a in pomdp.actions:
        transitions[(sink, a)] = {sink: Fraction(1)}

    reduced = Pomdp(states=states, actions=pomdp.actions,
                    observations=observations, obs_map=obs_map,
                    transitions=transitions, initial_state=pomdp.initial_state,
                    available=dict(pomdp.available))
    allowed = frozenset(s for s in pomdp.states if prio[s] != 1) | {sink}
    origin[sink] = (None, ROLE_SINK)
    return ReductionOutput(reduced, Objective.cobuchi(allowed), origin)


def almost_parity_to_cobuchi(pomdp: Pomdp, objective: Objective) -> ReductionOutput:
    """Compose ``parity_to_three`` and ``three_to_cobuchi``.

    The result has |S|*(d+1) + 1 states and a co-Buchi objective; a
    finite-memory strategy is almost-sure winning on the input iff the same
    strategy is almost-sure winning on the result.
    """
    first = parity_to_three(pomdp, objective)
    second = three_to_cobuchi(first.pomdp, first.objective)
    origin: dict[str, tuple[str | None, int | str]] = {}
    for new, (mid, marker) in second.state_origin.items():
        origin[new] = (None, marker) if mid is None else first.state_origin[mid]
    return ReductionOutput(second.pomdp, second.objective, origin)
