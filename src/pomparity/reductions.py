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

The copy index ``i`` tracks a "claimed" even priority 2i: whenever a state
of priority worse (numerically smaller) than the claim is visited, half of
the probability mass abandons the claim (dropping to copy i-1 or to a sink),
so surviving forever in copy i forces the claim to be eventually honest.
Fresh auxiliary states always get fresh singleton observations; halved
weights stay exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def positive_parity_to_buchi(pomdp: Pomdp, objective: Objective) -> ReductionOutput:
    """Rewrite positive-parity winning as positive-Buchi winning.

    Builds copies indexed by i in {0..d} where 2d bounds the priority range
    (an unused top priority is added implicitly when the range tops out at
    an odd number; unused priorities never change the winners).  A fresh
    initial state scatters uniformly over the copies of the original initial
    successors; inside copy i, states of priority < 2i leak half their mass
    to a rejecting sink.  The Buchi target is every copy state whose
    priority equals its copy's claim 2i.

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

    states = (init,) + tuple(copy_name[(s, i)]
                             for s in pomdp.states for i in copies) + (sink,)
    observations = pomdp.observations + (init_obs, sink_obs)
    obs_map = {copy_name[(s, i)]: pomdp.obs_map[s]
               for s in pomdp.states for i in copies}
    obs_map[init] = init_obs
    obs_map[sink] = sink_obs

    init_avail = pomdp.available_at(pomdp.obs_map[pomdp.initial_state])
    available = dict(pomdp.available)
    available[init_obs] = init_avail

    share = Fraction(1, d + 1)
    transitions: dict[tuple[str, str], dict[str, Fraction]] = {}
    for a in init_avail:
        row: dict[str, Fraction] = {}
        for t, w in pomdp.dist(pomdp.initial_state, a).items():
            for i in copies:
                row[copy_name[(t, i)]] = w * share
        transitions[(init, a)] = row
    for s in pomdp.states:
        for a in pomdp.available_at(pomdp.obs_map[s]):
            dist = pomdp.dist(s, a)
            for i in copies:
                if prio[s] >= 2 * i:
                    row = {copy_name[(t, i)]: w for t, w in dist.items()}
                else:
                    row = {copy_name[(t, i)]: w * HALF for t, w in dist.items()}
                    row[sink] = HALF
                transitions[(copy_name[(s, i)], a)] = row
    for a in pomdp.actions:
        transitions[(sink, a)] = {sink: Fraction(1)}

    reduced = Pomdp(states=states, actions=pomdp.actions,
                    observations=observations, obs_map=obs_map,
                    transitions=transitions, initial_state=init,
                    available=available)
    targets = frozenset(copy_name[(s, i)]
                        for s in pomdp.states for i in copies
                        if prio[s] == 2 * i)
    origin: dict[str, tuple[str | None, int | str]] = {
        init: (None, ROLE_INITIAL), sink: (None, ROLE_SINK)}
    for (s, i), new in copy_name.items():
        origin[new] = (s, i)
    return ReductionOutput(reduced, Objective.buchi(targets), origin)


def parity_to_three(pomdp: Pomdp, objective: Objective) -> ReductionOutput:
    """Rewrite almost-sure parity into almost-sure parity over {0,1,2}.

    Copies indexed by i in {0..d} with 2d+1 bounding the priority range;
    play starts in the top copy.  Inside copy i, states of priority < 2i
    leak half their mass one copy down, so a run settles in the copy of its
    actual limit claim.  Copy-i states of priority exactly 2i map to new
    priority 0, those of priority 2i+1 to priority 1, everything else to 2.

    A finite-memory strategy is almost-sure winning on the input iff the
    same strategy is almost-sure winning on the output.
    """
    prio = _priority_table(pomdp, objective)
    d = objective.max_priority // 2
    copies = range(d + 1)

    copy_name = {(s, i): f"{s}@{i}" for s in pomdp.states for i in copies}
    states = tuple(copy_name[(s, i)] for s in pomdp.states for i in copies)
    obs_map = {copy_name[(s, i)]: pomdp.obs_map[s]
               for s in pomdp.states for i in copies}

    transitions: dict[tuple[str, str], dict[str, Fraction]] = {}
    for s in pomdp.states:
        for a in pomdp.available_at(pomdp.obs_map[s]):
            dist = pomdp.dist(s, a)
            for i in copies:
                if prio[s] >= 2 * i:
                    row = {copy_name[(t, i)]: w for t, w in dist.items()}
                else:
                    row = {copy_name[(t, i)]: w * HALF for t, w in dist.items()}
                    for t, w in dist.items():
                        row[copy_name[(t, i - 1)]] = w * HALF
                transitions[(copy_name[(s, i)], a)] = row

    reduced = Pomdp(states=states, actions=pomdp.actions,
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

    priorities = {copy_name[(s, i)]: squeeze(s, i)
                  for s in pomdp.states for i in copies}
    origin: dict[str, tuple[str | None, int | str]] = {
        new: (s, i) for (s, i), new in copy_name.items()}
    return ReductionOutput(reduced, Objective.parity(priorities), origin)


def three_to_cobuchi(pomdp: Pomdp, objective: Objective) -> ReductionOutput:
    """Rewrite almost-sure parity over {0,1,2} into almost-sure co-Buchi.

    Priority-0 states leak half their mass to a fresh absorbing sink that
    counts as allowed, and then drop to the allowed set themselves; the
    co-Buchi allowed set is everything except the priority-1 states.  Seeing
    priority 0 infinitely often thus forces falling into the (winning) sink,
    and runs that avoid priority 0 keep their verdict unchanged.

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
    states = pomdp.states + (sink,)
    observations = pomdp.observations + (sink_obs,)
    obs_map = dict(pomdp.obs_map)
    obs_map[sink] = sink_obs

    transitions: dict[tuple[str, str], dict[str, Fraction]] = {}
    for s in pomdp.states:
        for a in pomdp.available_at(pomdp.obs_map[s]):
            dist = pomdp.dist(s, a)
            if prio[s] == 0:
                row = {t: w * HALF for t, w in dist.items()}
                row[sink] = HALF
            else:
                row = dict(dist)
            transitions[(s, a)] = row
    for a in pomdp.actions:
        transitions[(sink, a)] = {sink: Fraction(1)}

    reduced = Pomdp(states=states, actions=pomdp.actions,
                    observations=observations, obs_map=obs_map,
                    transitions=transitions, initial_state=pomdp.initial_state,
                    available=dict(pomdp.available))
    allowed = frozenset(s for s in pomdp.states if prio[s] != 1) | {sink}
    origin: dict[str, tuple[str | None, int | str]] = {
        s: (s, 0) for s in pomdp.states}
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
