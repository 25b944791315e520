"""Finite POMDPs with qualitative objectives.

Core types shared by the whole package: the POMDP itself (states, actions,
observation partition, exact-rational transition law, per-observation
available actions), the objective taxonomy (reachability, safety, Buchi,
co-Buchi, parity, Muller), winning modes, and the small set of model
surgeries the analyses need (belief updates, absorbing rewrites,
objective-to-parity conversion).

Weights are `fractions.Fraction` throughout.  The qualitative analyses only
ever read supports, but an exact law keeps serialization loss-free and lets
the weight-splitting model rewrites stay exact.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

ONE = Fraction(1)


class PomparityError(Exception):
    """Base class for all package-specific errors."""


class ContractError(PomparityError):
    """A documented precondition of an operation was violated."""


class StructuralError(PomparityError):
    """An object refers to states, actions or observations that do not exist."""


class ExactnessError(PomparityError):
    """Weights are not exact probabilities (e.g. do not sum to one)."""


class ParseError(PomparityError):
    """A model or strategy document could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ResourceLimitError(PomparityError):
    """A construction exceeded its state budget."""


class UnsupportedConversionError(PomparityError):
    """An objective conversion that is out of scope."""


class WinningMode(enum.Enum):
    ALMOST_SURE = "almost"
    POSITIVE = "positive"


# Objective kinds.
REACH = "reach"
SAFE = "safe"
BUCHI = "buchi"
COBUCHI = "cobuchi"
PARITY = "parity"
MULLER = "muller"

_TARGET_KINDS = (REACH, SAFE, BUCHI, COBUCHI)


@dataclass(frozen=True)
class Objective:
    """Tagged union over the supported objective kinds.

    ``targets`` is used by reach/safe/buchi/cobuchi, ``priorities`` by
    parity (state -> non-negative priority, sorted tuple for hashability),
    ``colors``/``family`` by Muller (state -> color, accepting color sets).
    For parity, ``declared_max`` fixes the priority range {0..declared_max}
    when it must exceed the maximum priority actually used (reductions care
    about the parity of the range's top); it defaults to the maximum used.
    """

    kind: str
    targets: frozenset[str] = frozenset()
    priorities: tuple[tuple[str, int], ...] = ()
    colors: tuple[tuple[str, int], ...] = ()
    family: frozenset[frozenset[int]] = frozenset()
    declared_max: int | None = None

    @classmethod
    def reach(cls, targets: Iterable[str]) -> "Objective":
        return cls(REACH, targets=frozenset(targets))

    @classmethod
    def safe(cls, targets: Iterable[str]) -> "Objective":
        return cls(SAFE, targets=frozenset(targets))

    @classmethod
    def buchi(cls, targets: Iterable[str]) -> "Objective":
        return cls(BUCHI, targets=frozenset(targets))

    @classmethod
    def cobuchi(cls, targets: Iterable[str]) -> "Objective":
        return cls(COBUCHI, targets=frozenset(targets))

    @classmethod
    def parity(cls, priorities: Mapping[str, int], declared_max: int | None = None) -> "Objective":
        return cls(PARITY, priorities=tuple(sorted(priorities.items())),
                   declared_max=declared_max)

    @classmethod
    def muller(cls, colors: Mapping[str, int],
               family: Iterable[Iterable[int]]) -> "Objective":
        return cls(MULLER, colors=tuple(sorted(colors.items())),
                   family=frozenset(frozenset(f) for f in family))

    @cached_property
    def priority_map(self) -> dict[str, int]:
        return dict(self.priorities)

    @cached_property
    def color_map(self) -> dict[str, int]:
        return dict(self.colors)

    @property
    def max_priority(self) -> int:
        """Top of the declared priority range (parity only)."""
        if self.kind != PARITY:
            raise ContractError(f"max_priority undefined for {self.kind} objective")
        used = max((p for _, p in self.priorities), default=0)
        if self.declared_max is None:
            return used
        return max(self.declared_max, used)


def validate_objective(pomdp: "Pomdp", objective: Objective) -> list[str]:
    """Report objective problems relative to a model (empty list = fine)."""
    problems: list[str] = []
    states = set(pomdp.states)
    if objective.kind in _TARGET_KINDS:
        for s in sorted(objective.targets - states):
            problems.append(f"objective target {s!r} is not a state")
        if not objective.targets:
            problems.append("objective has an empty target set")
    elif objective.kind == PARITY:
        pm = objective.priority_map
        for s in pomdp.states:
            if s not in pm:
                problems.append(f"state {s!r} has no priority")
        for s in sorted(set(pm) - states):
            problems.append(f"priority assigned to unknown state {s!r}")
        for s, p in objective.priorities:
            if p < 0:
                problems.append(f"state {s!r} has negative priority {p}")
        if objective.declared_max is not None:
            too_big = [s for s, p in objective.priorities if p > objective.declared_max]
            for s in too_big:
                problems.append(
                    f"state {s!r} has priority above the declared maximum "
                    f"{objective.declared_max}")
    elif objective.kind == MULLER:
        cm = objective.color_map
        for s in pomdp.states:
            if s not in cm:
                problems.append(f"state {s!r} has no color")
        for s in sorted(set(cm) - states):
            problems.append(f"color assigned to unknown state {s!r}")
        declared = set(cm.values())
        for f in objective.family:
            for c in sorted(f - declared):
                problems.append(f"accepting set uses undeclared color {c}")
    else:
        problems.append(f"unknown objective kind {objective.kind!r}")
    return problems


def exact_dist(dist: Mapping, where: tuple[str, object]) -> dict:
    """A copy of ``dist`` with ``Fraction`` weights: the one exactness rule.
    A float is refused, naming ``where`` (what, key); a Fraction is kept."""
    out = {}
    for x, w in dist.items():
        if isinstance(w, float):
            raise ExactnessError(
                f"float weight {w!r} in {where[0]} {where[1]!r} -> {x!r}; "
                f"use Fraction, int or a numeric string")
        out[x] = w if type(w) is Fraction else Fraction(w)
    return out


@dataclass
class Pomdp:
    """A finite POMDP.

    ``states``, ``actions`` and ``observations`` are name tuples whose order
    is the canonical index order used everywhere (serialization, bottom-SCC
    ordering, bit encodings).  ``obs_map`` labels every state with exactly
    one observation; the state space is partitioned by observation.
    ``transitions`` maps (state, action) to a weighted successor
    distribution.  ``available`` optionally restricts the actions playable
    at an observation; observations without an entry allow every action.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    obs_map: dict[str, str]
    transitions: dict[tuple[str, str], dict[str, Fraction]]
    initial_state: str
    available: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.states = tuple(self.states)
        self.actions = tuple(self.actions)
        self.observations = tuple(self.observations)
        all_actions = frozenset(self.actions)
        norm: dict[str, frozenset[str]] = {}
        for o in self.observations:
            got = self.available.get(o)
            norm[o] = all_actions if got is None else frozenset(got)
        for o, acts in self.available.items():
            if o not in norm:  # unknown observation; kept for validate to flag
                norm[o] = frozenset(acts)
        self.available = norm
        self.transitions = {key: exact_dist(dist, ("transition", key))
                            for key, dist in self.transitions.items()}

    # -- derived lookups (cached; instances are immutable by convention) --

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def action_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def obs_index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.observations)}

    @cached_property
    def index_supports(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
        """Per state index: its observation index, and per action index its
        successor state indices (none where the action is unavailable)."""
        sidx, obs_map = self.state_index, self.obs_map
        return (tuple(self.obs_index[obs_map[s]] for s in self.states),
                tuple(tuple(tuple(map(sidx.__getitem__, self.supp(s, a)))
                            if a in self.available_at(obs_map[s]) else ()
                            for a in self.actions) for s in self.states))

    @cached_property
    def obs_classes(self) -> dict[str, tuple[str, ...]]:
        classes: dict[str, list[str]] = {o: [] for o in self.observations}
        for s in self.states:
            o = self.obs_map.get(s)
            if o in classes:
                classes[o].append(s)
        return {o: tuple(members) for o, members in classes.items()}

    def states_with_obs(self, obs: str) -> tuple[str, ...]:
        return self.obs_classes.get(obs, ())

    def available_at(self, obs: str) -> frozenset[str]:
        acts = self.available.get(obs)
        return frozenset(self.actions) if acts is None else acts

    def dist(self, state: str, action: str) -> Mapping[str, Fraction]:
        return self.transitions.get((state, action), {})

    def supp(self, state: str, action: str) -> tuple[str, ...]:
        """Successor support of (state, action), in distribution order.

        Derived on each call: ``index_supports`` is the one cached table.
        Readers whose result depends on the order sort by ``state_index``
        themselves.
        """
        return tuple(t for t, w in self.dist(state, action).items() if w > 0)


def validate(pomdp: Pomdp) -> list[str]:
    """Structural validation; returns a report naming each offender.

    An empty list means the model satisfies every invariant: unique names,
    total observation labelling, non-empty observation classes, a declared
    initial state, non-empty available-action sets, and an exact
    probability distribution for every available (state, action) pair.
    Other states may share the initial observation: the analyses start at
    the initial state itself, not at its observation class.
    """
    problems: list[str] = []
    for kind, names in (("state", pomdp.states), ("action", pomdp.actions),
                        ("observation", pomdp.observations)):
        if not names:
            problems.append(f"no {kind}s declared")
        for name, count in Counter(names).items():
            if count > 1:
                problems.append(f"duplicate {kind} name {name!r}")
    states = set(pomdp.states)
    actions = set(pomdp.actions)
    observations = set(pomdp.observations)

    for s in pomdp.states:
        o = pomdp.obs_map.get(s)
        if o is None:
            problems.append(f"state {s!r} has no observation")
        elif o not in observations:
            problems.append(f"state {s!r} is mapped to unknown observation {o!r}")
    for s in pomdp.obs_map:
        if s not in states:
            problems.append(f"observation map mentions unknown state {s!r}")

    labelled = {pomdp.obs_map.get(s) for s in pomdp.states}
    for o in pomdp.observations:
        if o not in labelled:
            problems.append(f"observation {o!r} labels no state")

    if pomdp.initial_state not in states:
        problems.append(f"initial state {pomdp.initial_state!r} is not a declared state")

    for o, acts in pomdp.available.items():
        if o not in observations:
            problems.append(f"available-action entry for unknown observation {o!r}")
        for a in sorted(acts):
            if a not in actions:
                problems.append(f"available-action entry for {o!r} names unknown action {a!r}")
    for o in pomdp.observations:
        if not pomdp.available_at(o):
            problems.append(f"observation {o!r} allows no actions")

    for (s, a), dist in pomdp.transitions.items():
        if s not in states:
            problems.append(f"transition from unknown state {s!r}")
            continue
        if a not in actions:
            problems.append(f"transition from {s!r} uses unknown action {a!r}")
            continue
        o = pomdp.obs_map.get(s)
        if o is not None and a not in pomdp.available_at(o):
            problems.append(
                f"transition declared for {s!r}/{a!r} but the action is "
                f"unavailable at observation {o!r}")
        total = Fraction(0)
        for t, w in dist.items():
            if t not in states:
                problems.append(f"transition {s!r}/{a!r} targets unknown state {t!r}")
            if w <= 0:
                problems.append(f"transition {s!r}/{a!r} -> {t!r} has non-positive weight {w}")
            total += w
        if total != 1:
            problems.append(f"transition weights for {s!r}/{a!r} sum to {total}, not 1")

    for s in pomdp.states:
        o = pomdp.obs_map.get(s)
        if o not in observations:
            continue
        for a in sorted(pomdp.available_at(o) & actions):
            if (s, a) not in pomdp.transitions:
                problems.append(f"missing transition for state {s!r}, available action {a!r}")
    return problems


def fresh_name(base: str, taken: set[str]) -> str:
    """``base`` with underscores appended until it avoids ``taken``; reserved there."""
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def belief_update(pomdp: Pomdp, belief: Iterable[str], action: str,
                  obs: str) -> frozenset[str]:
    """Successor belief: union of supports filtered to the observation class.

    Preconditions: the belief is non-empty, all its states share one
    observation, and the action is available there.  The result may be
    empty (the observation had probability zero from this belief).
    """
    belief = known_states(pomdp, belief, "belief contains")
    if not belief:
        raise ContractError("belief update from an empty belief")
    obs_here = {pomdp.obs_map[s] for s in belief}
    if len(obs_here) != 1:
        raise ContractError(
            f"belief mixes observations: {', '.join(sorted(obs_here))}")
    (current,) = obs_here
    if action not in pomdp.available_at(current):
        raise ContractError(f"action {action!r} is unavailable at observation {current!r}")
    if obs not in pomdp.obs_index:
        raise StructuralError(f"unknown observation {obs!r}")
    union: set[str] = set()
    for s in belief:
        union.update(pomdp.supp(s, action))
    return frozenset(t for t in union if pomdp.obs_map[t] == obs)


def known_states(pomdp: Pomdp, states: Iterable[str],
                 what: str) -> frozenset[str]:
    """The states as a set; a ``StructuralError`` names, after ``what``,
    those the model lacks."""
    states = frozenset(states)
    if unknown := sorted(states.difference(pomdp.state_index)):
        raise StructuralError(f"{what} unknown states: {', '.join(unknown)}")
    return states


def make_absorbing(pomdp: Pomdp, targets: Iterable[str]) -> Pomdp:
    """Rewrite every target state to loop back to itself under all actions."""
    targets = known_states(pomdp, targets, "cannot absorb")
    new_transitions = dict(pomdp.transitions)
    for s in pomdp.states:
        if s not in targets:
            continue
        for a in pomdp.available_at(pomdp.obs_map[s]):
            new_transitions[(s, a)] = {s: ONE}
    return replace(pomdp, transitions=new_transitions)


def objective_as_parity(pomdp: Pomdp, objective: Objective) -> tuple[Pomdp, Objective]:
    """Express an objective as a parity objective, rewriting the model if needed.

    Buchi/co-Buchi only relabel states with the two-priority encodings.
    Reach rewrites targets absorbing (post-target behaviour is irrelevant to
    reaching them) and then coincides with Buchi; Safe rewrites the target
    complement absorbing (leaving the safe set is irrevocable) and then
    coincides with co-Buchi.  Muller is not convertible here.
    """
    if objective.kind == PARITY:
        return pomdp, objective
    if objective.kind == MULLER:
        raise UnsupportedConversionError(
            "Muller objectives have no parity conversion in this package")
    if objective.kind not in _TARGET_KINDS:
        raise ContractError(f"unknown objective kind {objective.kind!r}")
    targets = known_states(pomdp, objective.targets, "objective targets")
    if objective.kind == BUCHI:
        return pomdp, Objective.parity(
            {s: (0 if s in targets else 1) for s in pomdp.states})
    if objective.kind == COBUCHI:
        return pomdp, Objective.parity(
            {s: (2 if s in targets else 1) for s in pomdp.states})
    if objective.kind == REACH:
        rewritten = make_absorbing(pomdp, targets)
        return rewritten, Objective.parity(
            {s: (0 if s in targets else 1) for s in pomdp.states})
    # Safe: escaping the target set is made irrevocable.
    bad = set(pomdp.states) - targets
    rewritten = make_absorbing(pomdp, bad)
    return rewritten, Objective.parity(
        {s: (2 if s in targets else 1) for s in pomdp.states})
