"""Shared fixtures and seeded random-instance generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from pomparity import (MULLER, PARITY, FiniteMemoryStrategy, Objective, Pomdp,
                       build_product_chain, evaluate_qualitative,
                       is_belief_observation, load_fixture, make_absorbing,
                       objective_as_parity, stationary_strategy, uniform,
                       validate)


# -- fixture models --

@pytest.fixture(scope="session")
def ex1():
    return load_fixture("ex1")


@pytest.fixture(scope="session")
def ex2():
    return load_fixture("ex2")


@pytest.fixture(scope="session")
def ex2fix(ex2):
    """EX2 with the bad state made absorbing, under a Buchi objective."""
    pomdp, _ = ex2
    fixed = make_absorbing(pomdp, {"B"})
    return fixed, Objective.buchi({"X", "X'", "Y", "Y'", "Z", "Z'"})


# Two priority-2 states in one observation, each able to commit or explore:
# one branch multiplies out to 2 * 2 = 4 element moves.
SPLIT_MODEL = """\
states: s0 x y
actions: a
observations: o0 o1
obs: s0 : o0
obs: x : o1
obs: y : o1
init: s0
trans: s0 a -> x 1/2, y 1/2
trans: x a -> x 1
trans: y a -> y 1
objective: cobuchi x y
"""
SPLIT_BUDGET_ERROR = ("one memory-selection branch multiplies out to 4 "
                      "element moves, past the 3-state budget")


def alternating(pomdp, first="ma", second="mb") -> FiniteMemoryStrategy:
    """Two memories playing a and b in turn, swapping on every observation."""
    swap = {first: second, second: first}
    update = {(m, o, a): {swap[m]: Fraction(1)}
              for m in (first, second) for o in pomdp.observations
              for a in ("a", "b")}
    return FiniteMemoryStrategy(
        memories=(first, second),
        action_select={first: uniform(["a"]), second: uniform(["b"])},
        memory_update=update, initial_memory=first)


def chain_wins(pomdp, objective, mode, strategy) -> bool:
    """Evaluate a strategy through the product chain, as a second opinion."""
    if objective.kind in (PARITY, MULLER):
        base, evaluable = pomdp, objective
    else:
        base, evaluable = objective_as_parity(pomdp, objective)
    return evaluate_qualitative(build_product_chain(base, strategy),
                                evaluable, mode)


# -- seeded random instances --

def weighted(rng, keys) -> dict:
    weights = [rng.randint(1, 4) for _ in keys]
    total = sum(weights)
    return {k: Fraction(w, total) for k, w in zip(keys, weights)}


def random_pomdp(rng: random.Random, max_states: int = 4, n_actions: int = 2,
                 max_obs: int = 3, max_support: int = 3) -> Pomdp:
    """A valid random POMDP; the initial state observes alone."""
    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    actions = ("a", "b")[:n_actions]
    groups = rng.randint(1, max(1, min(max_obs - 1, n - 1)))
    obs_map = {"s0": "o0"}
    for s in states[1:]:
        obs_map[s] = f"o{rng.randint(1, groups)}"
    observations = tuple(sorted({o for o in obs_map.values()},
                                key=lambda o: int(o[1:])))
    transitions = {}
    for s in states:
        for a in actions:
            support = rng.sample(states, rng.randint(1, min(max_support, n)))
            transitions[(s, a)] = weighted(rng, support)
    pomdp = Pomdp(states=states, actions=actions, observations=observations,
                  obs_map=obs_map, transitions=transitions, initial_state="s0")
    assert validate(pomdp) == []
    return pomdp


def gamble_pomdp(rng: random.Random) -> tuple[Pomdp, Objective]:
    """A random model with a gamble, and a parity objective on it.

    Besides 2 or 3 random states, two absorbing states share
    one observation: the goal (priority 0) and the trap (priority 1).
    Action b from a random non-empty set of states reaches both with
    positive probability; action a never does, and no other move reaches
    either.  Where the other states win nothing, taking the gamble wins
    with positive probability but never almost surely, so the two modes
    disagree far more often than on ``random_pomdp``.
    """
    n = rng.randint(2, 3)
    inner = tuple(f"s{i}" for i in range(n))
    groups = rng.randint(1, max(1, n - 1))
    obs_map = {"s0": "o0", "goal": "o_end", "trap": "o_end"}
    for s in inner[1:]:
        obs_map[s] = f"o{rng.randint(1, groups)}"
    risky = rng.sample(inner, rng.randint(1, n))
    transitions = {(t, a): {t: Fraction(1)}
                   for t in ("goal", "trap") for a in ("a", "b")}
    for s in inner:
        for a in ("a", "b"):
            support = rng.sample(inner, rng.randint(1, 2))
            if a == "b" and s in risky:
                support += ["goal", "trap"]
            transitions[(s, a)] = weighted(rng, support)
    pomdp = Pomdp(states=inner + ("goal", "trap"), actions=("a", "b"),
                  observations=tuple(sorted(set(obs_map.values()))),
                  obs_map=obs_map, transitions=transitions, initial_state="s0")
    assert validate(pomdp) == []
    priority = {s: rng.randint(0, 3) for s in inner}
    return pomdp, Objective.parity({**priority, "goal": 0, "trap": 1})


def random_mdp(rng: random.Random, max_states: int = 4,
               n_actions: int = 2) -> Pomdp:
    """A perfect-observation random MDP: every state observes itself."""
    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    actions = ("a", "b")[:n_actions]
    transitions = {}
    for s in states:
        for a in actions:
            support = rng.sample(states, rng.randint(1, min(3, n)))
            transitions[(s, a)] = weighted(rng, support)
    pomdp = Pomdp(states=states, actions=actions,
                  observations=tuple(f"o_{s}" for s in states),
                  obs_map={s: f"o_{s}" for s in states},
                  transitions=transitions, initial_state="s0")
    assert validate(pomdp) == []
    return pomdp


def random_parity(rng: random.Random, pomdp: Pomdp, top: int = 2) -> Objective:
    return Objective.parity({s: rng.randint(0, top) for s in pomdp.states})


def random_strategy(rng: random.Random, pomdp: Pomdp,
                    max_memories: int = 3) -> FiniteMemoryStrategy:
    """A random finite-memory strategy with exact weights and total updates."""
    j = rng.randint(1, max_memories)
    memories = tuple(f"u{i}" for i in range(j))
    action_select = {}
    memory_update = {}
    for m in memories:
        support = rng.sample(pomdp.actions, rng.randint(1, len(pomdp.actions)))
        action_select[m] = weighted(rng, support)
        for o in pomdp.observations:
            for a in support:
                succ = rng.sample(memories, rng.randint(1, j))
                memory_update[(m, o, a)] = weighted(rng, succ)
    return FiniteMemoryStrategy(memories=memories, action_select=action_select,
                                memory_update=memory_update,
                                initial_memory="u0")


def random_belief_obs_pomdp(rng: random.Random, max_extra_states: int = 5,
                            n_actions: int = 2) -> Pomdp:
    """A random POMDP whose reachable beliefs are full observation classes.

    Per (observation class, action) every state of the class scatters into
    the same set of successor classes, and together the class covers each
    of those successor classes completely, so the belief after any history
    is exactly the class of the current observation.
    """
    n_extra_classes = rng.randint(1, 2)
    classes: dict[str, list[str]] = {"o0": ["s0"]}
    k = 1
    for c in range(1, n_extra_classes + 1):
        size = rng.randint(1, max(1, max_extra_states // n_extra_classes))
        classes[f"o{c}"] = [f"s{k + i}" for i in range(size)]
        k += size
    states = tuple(s for members in classes.values() for s in members)
    actions = ("a", "b")[:n_actions]
    obs_map = {s: o for o, members in classes.items() for s in members}
    observations = tuple(classes)
    transitions: dict[tuple[str, str], dict[str, Fraction]] = {}
    class_names = list(classes)
    for o, members in classes.items():
        for a in actions:
            targets = rng.sample(class_names, rng.randint(1, len(class_names)))
            target_states = [t for c in targets for t in classes[c]]
            support: dict[str, set[str]] = {s: set() for s in members}
            for t in target_states:
                support[rng.choice(members)].add(t)
            for s in members:
                if not support[s]:
                    support[s].add(rng.choice(target_states))
                for t in target_states:
                    if rng.random() < 0.3:
                        support[s].add(t)
                transitions[(s, a)] = weighted(rng, sorted(support[s]))
    pomdp = Pomdp(states=states, actions=actions, observations=observations,
                  obs_map=obs_map, transitions=transitions, initial_state="s0")
    assert validate(pomdp) == []
    assert is_belief_observation(pomdp)
    return pomdp


# -- memoryless observation-based search, used as an independent oracle --

def observation_stationary(pomdp: Pomdp,
                           supports: dict[str, tuple[str, ...]]) -> FiniteMemoryStrategy:
    """One memory per observation, playing that observation's support."""
    action_select = {f"w_{o}": uniform(supports[o]) for o in pomdp.observations}
    memory_update = {(f"w_{o}", o2, a): {f"w_{o2}": Fraction(1)}
                     for o in pomdp.observations for o2 in pomdp.observations
                     for a in supports[o]}
    return FiniteMemoryStrategy(
        memories=tuple(f"w_{o}" for o in pomdp.observations),
        action_select=action_select, memory_update=memory_update,
        initial_memory=f"w_{pomdp.obs_map[pomdp.initial_state]}")


def all_memoryless_supports(pomdp: Pomdp):
    """Every per-observation non-empty available-action assignment."""
    per_obs = []
    for o in pomdp.observations:
        acts = sorted(pomdp.available_at(o))
        per_obs.append([tuple(c) for r in range(1, len(acts) + 1)
                        for c in itertools.combinations(acts, r)])
    for combo in itertools.product(*per_obs):
        yield dict(zip(pomdp.observations, combo))


# -- the solve fixpoint cores, run from and read back as names --

def run_core(core, graph, start, *args):
    """A fixpoint core (``solve._safe_obs`` or ``solve._buchi_obs``) run on
    an observation graph from a set of observation names, its bitmaps
    read back as names: the set, the actions it keeps per observation,
    and the removal rank of every observation that leaves it."""
    start = frozenset(start)
    names = graph.observations
    inside, live, ranks = core(graph, bytearray(o in start for o in names),
                               *args)
    return (*graph.kept(inside, live),
            {names[j]: rank for j, rank in ranks.items()})
