"""Seeded random models for the benchmark, written as ``.pomdp`` text.

Stdlib only: the program under test receives nothing but the files these
functions write.

A model is drawn in two steps.  ``draw_structure`` fixes everything the
qualitative analysis reads: state count, observation partition,
transition supports and priorities.  ``render`` turns a structure into
text, drawing what the analysis must not depend on: state and observation
names and the exact transition probabilities.  The workloads draw their
structures from fixed family seeds and render them with the run's seed,
so every seed gives different files of the same cost and the same
verdicts.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class Structure:
    """A parity POMDP up to names and probabilities; state 0 is initial."""

    labels: tuple[int, ...]                      # observation index per state
    supports: tuple[tuple[tuple[int, ...], ...], ...]   # [state][action]
    priorities: tuple[int, ...]

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def n_obs(self) -> int:
        return max(self.labels) + 1


TOP_PRIORITY = 3
MAX_SUPPORT = 3


def draw_structure(rng: random.Random, min_states: int, max_states: int,
                   min_obs: int, max_obs: int) -> Structure:
    """A valid random structure in which the initial state observes alone.

    Priorities are 0..TOP_PRIORITY; supports have 1..MAX_SUPPORT states.
    Observation counts include the initial observation.  Every other
    observation labels at least one state, so the drawn count is exact
    (capped by the state count).
    """
    n = rng.randint(min_states, max_states)
    groups = max(1, min(rng.randint(min_obs, max_obs) - 1, n - 1))
    rest = [1 + g for g in range(groups)]
    rest += [rng.randint(1, groups) for _ in range(n - 1 - groups)]
    rng.shuffle(rest)
    supports = tuple(
        tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, min(MAX_SUPPORT, n)))))
              for _ in range(2))
        for _ in range(n))
    priorities = tuple(rng.randint(0, TOP_PRIORITY) for _ in range(n))
    return Structure(labels=(0, *rest), supports=supports, priorities=priorities)


def _names(rng: random.Random, count: int, lead: str) -> list[str]:
    """``count`` distinct random names, all starting with ``lead``."""
    names: set[str] = set()
    while len(names) < count:
        names.add(lead + "".join(rng.choices(string.ascii_lowercase, k=3)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def render(structure: Structure, rng: random.Random) -> str:
    """The structure as ``.pomdp`` text with seeded names and weights."""
    states = _names(rng, structure.n_states, "s")
    observations = _names(rng, structure.n_obs, "o")
    lines = [f"states: {' '.join(states)}", "actions: a b",
             f"observations: {' '.join(observations)}"]
    lines += [f"obs: {s} : {observations[g]}"
              for s, g in zip(states, structure.labels)]
    lines.append(f"init: {states[0]}")
    for s, per_action in zip(states, structure.supports):
        for a, support in zip("ab", per_action):
            weights = [rng.randint(1, 4) for _ in support]
            total = sum(weights)
            parts = ", ".join(f"{states[t]} {w}/{total}"
                              for t, w in zip(support, weights))
            lines.append(f"trans: {s} {a} -> {parts}")
    lines.append("objective: parity")
    lines += [f"priority: {s} {p}"
              for s, p in zip(states, structure.priorities)]
    return "\n".join(lines) + "\n"
