"""Strategy projection: graph invariants, verdict and recurrence preservation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pomparity import (ContractError, ExactnessError, FiniteMemoryStrategy,
                       Objective, WinningMode, belief_update,
                       build_product_chain, build_projection_graph,
                       compute_rec_functions, evaluate_qualitative,
                       memory_bound, objective_as_parity, project_strategy,
                       uniform)
from conftest import (alternating, chain_wins, random_parity, random_pomdp,
                      random_strategy)

ALMOST = WinningMode.ALMOST_SURE
POSITIVE = WinningMode.POSITIVE


def summaries(pomdp, strategy, colors):
    """Per-memory (brec, srec) keys, recomputed the way the graph merges them."""
    rec = compute_rec_functions(pomdp, strategy, colors)
    out = {}
    for m in strategy.memories:
        brec = frozenset(s for s in pomdp.states if rec.bool_rec[m][s])
        srec = tuple(sorted((s, rec.set_rec[m][s]) for s in pomdp.states))
        out[m] = (brec, srec)
    return out


@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
def test_uniform_is_an_exact_distribution(items):
    dist = uniform(items)
    assert sum(dist.values()) == Fraction(1)
    assert set(dist) == set(items)


def test_strategy_weights_must_be_exact():
    """A float names the offending key; a ``Fraction`` is kept as given."""
    half = Fraction(1, 2)
    with pytest.raises(ExactnessError, match="action selection 'm'"):
        FiniteMemoryStrategy(
            memories=("m",), action_select={"m": {"a": half, "b": 0.5}},
            memory_update={}, initial_memory="m")
    with pytest.raises(ExactnessError,
                       match=r"memory update \('m', 'o', 'a'\)"):
        FiniteMemoryStrategy(
            memories=("m",), action_select={"m": {"a": 1}},
            memory_update={("m", "o", "a"): {"m": 1.0}}, initial_memory="m")
    sigma = FiniteMemoryStrategy(
        memories=("m",), action_select={"m": {"a": half, "b": "1/2"}},
        memory_update={("m", "o", "a"): {"m": 1}}, initial_memory="m")
    assert sigma.action_select["m"]["a"] is half
    assert sigma.action_select["m"]["b"] == half
    assert type(sigma.memory_update[("m", "o", "a")]["m"]) is Fraction


def test_uniform_refuses_empty_input():
    with pytest.raises(ContractError):
        uniform([])


def test_projection_graph_of_alternating_on_ex1(ex1):
    pomdp, objective = ex1
    _, parity = objective_as_parity(pomdp, objective)
    pg = build_projection_graph(pomdp, alternating(pomdp), parity.priority_map)
    assert pg.initial.belief == frozenset({"s0"})
    assert pg.initial in pg.vertices
    u = frozenset({"X", "X'", "Y", "Y'", "Z", "Z'"})
    assert all(v.belief in (frozenset({"s0"}), u) for v in pg.vertices)


def test_projection_edges_use_supported_actions_and_belief_updates():
    rng = random.Random(3001)
    for _ in range(30):
        pomdp = random_pomdp(rng)
        colors = random_parity(rng, pomdp).priority_map
        sigma = random_strategy(rng, pomdp)
        pg = build_projection_graph(pomdp, sigma, colors)
        keys = summaries(pomdp, sigma, colors)
        for v in pg.vertices:
            matching = [m for m in sigma.memories
                        if keys[m] == (v.brec, v.srec)]
            assert matching, "vertex with no originating memory"
            for a, succs in pg.edges[v].items():
                assert any(a in sigma.action_support(m) for m in matching)
                for v2 in succs:
                    assert v2.belief
                    o2 = pomdp.obs_map[next(iter(v2.belief))]
                    assert v2.belief == belief_update(pomdp, v.belief, a, o2)


def test_projected_strategy_preserves_initial_recurrence_sets():
    rng = random.Random(3002)
    for _ in range(30):
        pomdp = random_pomdp(rng)
        colors = random_parity(rng, pomdp).priority_map
        sigma = random_strategy(rng, pomdp)
        projected = project_strategy(pomdp, sigma, colors)
        rec_base = compute_rec_functions(pomdp, sigma, colors)
        rec_proj = compute_rec_functions(pomdp, projected, colors)
        s0 = pomdp.initial_state
        assert (rec_proj.set_rec[projected.initial_memory][s0]
                == rec_base.set_rec[sigma.initial_memory][s0])


def test_projected_strategy_preserves_both_verdicts():
    rng = random.Random(3003)
    for _ in range(30):
        pomdp = random_pomdp(rng)
        objective = random_parity(rng, pomdp)
        sigma = random_strategy(rng, pomdp)
        projected = project_strategy(pomdp, sigma, objective.priority_map)
        for mode in (ALMOST, POSITIVE):
            assert (chain_wins(pomdp, objective, mode, projected)
                    == chain_wins(pomdp, objective, mode, sigma))


def test_projected_memory_count_is_bounded():
    rng = random.Random(3004)
    for _ in range(30):
        pomdp = random_pomdp(rng)
        objective = random_parity(rng, pomdp)
        sigma = random_strategy(rng, pomdp)
        projected = project_strategy(pomdp, sigma, objective.priority_map)
        n = len(pomdp.states)
        d = len(set(objective.priority_map.values()))
        assert len(projected.memories) <= 2 ** (2 * n) * d ** n


def test_projected_memories_carry_their_elements(ex1):
    pomdp, objective = ex1
    _, parity = objective_as_parity(pomdp, objective)
    projected = project_strategy(pomdp, alternating(pomdp), parity.priority_map)
    assert set(projected.elements) == set(projected.memories)
    for m in projected.memories:
        assert projected.elements[m].belief


def walk_closure(chain):
    """All edges of the reachable product chain."""
    for node in chain.nodes:
        for succ in chain.succ[node]:
            yield node, succ


def test_recurrence_summaries_shrink_along_projected_chains():
    """Reachable colour-set collections only narrow; recurrence is absorbing."""
    rng = random.Random(3005)
    for _ in range(25):
        pomdp = random_pomdp(rng, max_states=3)
        objective = random_parity(rng, pomdp)
        colors = objective.priority_map
        sigma = random_strategy(rng, pomdp, max_memories=2)
        for strat in (sigma, project_strategy(pomdp, sigma, colors)):
            chain = build_product_chain(pomdp, strat)
            rec = compute_rec_functions(pomdp, strat, colors)
            for (s, m), (t, m2) in walk_closure(chain):
                assert rec.set_rec[m][s], "empty recurrence summary"
                assert rec.set_rec[m2][t] <= rec.set_rec[m][s]
                if rec.bool_rec[m][s]:
                    assert rec.bool_rec[m2][t] == 1
                    only = next(iter(rec.set_rec[m][s]))
                    assert len(rec.set_rec[m][s]) == 1
                    assert colors[t] in only


def test_memory_bound_formulas():
    pomdp = random_pomdp(random.Random(1), max_states=3)
    n = len(pomdp.states)
    parity = Objective.parity({s: 2 for s in pomdp.states})
    assert memory_bound(pomdp, parity) == 2 ** (3 * 3 * n)
    reach = Objective.reach({pomdp.states[-1]})
    assert memory_bound(pomdp, reach) == 2 ** (3 * 2 * n)
    muller = Objective.muller({s: 0 for s in pomdp.states}, [{0}])
    assert memory_bound(pomdp, muller) == 2 ** (2 * n) * (2 ** (2 ** 1)) ** n
