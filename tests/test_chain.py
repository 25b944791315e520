"""Product chains: bottom SCCs, recurrence functions, qualitative evaluation."""

import collections
import dataclasses
import functools
import random
from fractions import Fraction
from itertools import compress

import pytest

from pomparity import (Objective, StructuralError, WinningMode,
                       build_product_chain, compute_rec_functions, dump_chain,
                       evaluate_qualitative, full_product_graph,
                       objective_as_parity, stationary_strategy,
                       validate_strategy)
from pomparity.chain import _condense
from pomparity.strategy import FiniteMemoryStrategy, uniform
from conftest import (alternating, chain_wins, random_parity, random_pomdp,
                      random_strategy)

ALMOST = WinningMode.ALMOST_SURE
POSITIVE = WinningMode.POSITIVE


def test_single_memory_chain_nodes_are_state_pairs(ex1):
    pomdp, _ = ex1
    chain = build_product_chain(pomdp, stationary_strategy(pomdp, ["a", "b"]))
    assert chain.initial == ("s0", "m")
    assert all(m == "m" for _, m in chain.nodes)
    assert set(chain.nodes) == {(s, "m") for s in pomdp.states}


def test_alternating_chain_on_ex1_has_the_two_good_classes(ex1):
    pomdp, _ = ex1
    chain = build_product_chain(pomdp, alternating(pomdp))
    bottoms = {frozenset(c) for c in chain.bottom_sccs()}
    assert bottoms == {
        frozenset({("X", "ma"), ("X'", "mb")}),
        frozenset({("Z", "mb"), ("Z'", "ma")}),
    }


def test_stationary_chains_on_ex1_recur_through_the_whole_level(ex1):
    pomdp, _ = ex1
    for support in (["a"], ["b"], ["a", "b"]):
        chain = build_product_chain(pomdp, stationary_strategy(pomdp, support))
        bottoms = chain.bottom_sccs()
        assert len(bottoms) == 1
        states = {s for s, _ in bottoms[0]}
        assert "Y" in states or "Y'" in states


def test_unknown_action_in_strategy_is_rejected(ex1):
    pomdp, _ = ex1
    bad = FiniteMemoryStrategy(
        memories=("m",), action_select={"m": uniform(["zap"])},
        memory_update={("m", "o_U", "zap"): {"m": Fraction(1)}},
        initial_memory="m")
    assert validate_strategy(pomdp, bad)
    with pytest.raises(StructuralError):
        build_product_chain(pomdp, bad)


def test_full_product_graph_covers_every_pair(ex1):
    pomdp, _ = ex1
    sigma = alternating(pomdp)
    succ = full_product_graph(pomdp, sigma)
    assert set(succ) == {(s, m) for s in pomdp.states for m in sigma.memories}


def test_evaluation_matches_direct_bottom_scc_reasoning():
    rng = random.Random(90125)
    for _ in range(40):
        pomdp = random_pomdp(rng)
        objective = random_parity(rng, pomdp)
        sigma = random_strategy(rng, pomdp)
        chain = build_product_chain(pomdp, sigma)
        pm = objective.priority_map
        good = [min(pm[s] for s, _ in c) % 2 == 0 for c in chain.bottom_sccs()]
        assert evaluate_qualitative(chain, objective, ALMOST) == all(good)
        assert evaluate_qualitative(chain, objective, POSITIVE) == any(good)


def test_muller_evaluation_reads_colour_sets():
    pomdp = random_pomdp(random.Random(7), max_states=3)
    sigma = stationary_strategy(pomdp, pomdp.actions)
    chain = build_product_chain(pomdp, sigma)
    colours = {s: i for i, s in enumerate(pomdp.states)}
    seen = [frozenset(colours[s] for s, _ in c) for c in chain.bottom_sccs()]
    wins_all = Objective.muller(colours, [set(c) for c in seen])
    wins_none = Objective.muller(colours, [{max(colours.values()) + 1}])
    assert evaluate_qualitative(chain, wins_all, ALMOST)
    assert not evaluate_qualitative(chain, wins_none, POSITIVE)


def test_rec_functions_inside_a_recurrent_class(ex1):
    pomdp, objective = ex1
    _, parity = objective_as_parity(pomdp, objective)
    sigma = alternating(pomdp)
    chain = build_product_chain(pomdp, sigma)
    rec = compute_rec_functions(pomdp, sigma, parity.priority_map)
    for cls in chain.bottom_sccs():
        colours = frozenset(parity.priority_map[s] for s, _ in cls)
        for s, m in cls:
            assert rec.bool_rec[m][s] == 1
            assert rec.set_rec[m][s] == frozenset({colours})


def test_rec_functions_zero_outside_recurrent_classes(ex1):
    pomdp, objective = ex1
    _, parity = objective_as_parity(pomdp, objective)
    sigma = alternating(pomdp)
    chain = build_product_chain(pomdp, sigma)
    recurrent = {n for c in chain.bottom_sccs() for n in c}
    rec = compute_rec_functions(pomdp, sigma, parity.priority_map)
    for s, m in set(chain.nodes) - recurrent:
        assert rec.bool_rec[m][s] == 0
        assert len(rec.set_rec[m][s]) >= 1


def test_long_run_simulation_lands_in_a_recurrent_class():
    """Sanity: a long sample path ends up inside some bottom SCC."""
    rng = random.Random(5150)
    pomdp = random_pomdp(rng, max_states=4)
    sigma = random_strategy(rng, pomdp, max_memories=2)
    chain = build_product_chain(pomdp, sigma)
    recurrent = {n for c in chain.bottom_sccs() for n in c}

    node = chain.initial
    for _ in range(10 ** 4):
        s, m = node
        acts = sorted(sigma.action_select[m])
        weights = [sigma.action_select[m][a] for a in acts]
        a = rng.choices(acts, weights)[0]
        dist = pomdp.dist(s, a)
        succs = sorted(dist)
        s2 = rng.choices(succs, [dist[t] for t in succs])[0]
        upd = sigma.memory_update[(m, pomdp.obs_map[s2], a)]
        ms = sorted(upd)
        m2 = rng.choices(ms, [upd[x] for x in ms])[0]
        node = (s2, m2)
    assert node in recurrent


def test_dump_chain_is_deterministic(ex1):
    pomdp, _ = ex1
    sigma = alternating(pomdp)
    first = dump_chain(build_product_chain(pomdp, sigma))
    second = dump_chain(build_product_chain(pomdp, sigma))
    assert first == second
    assert "(s0, ma)" in first or "s0" in first


def test_chain_second_opinion_helper_agrees_on_ex1(ex1):
    pomdp, objective = ex1
    assert chain_wins(pomdp, objective, ALMOST, alternating(pomdp))
    assert not chain_wins(pomdp, objective, ALMOST,
                          stationary_strategy(pomdp, ["a"]))


# -- error texts: the compiled table fails exactly where validation does --

def _mutations(rng, pomdp, strategy):
    """One support table per problem kind ``validate_strategy`` reports."""
    table = strategy.supports
    change = functools.partial(dataclasses.replace, table)
    m = rng.choice(table.memories)
    key = rng.choice(sorted(table.update_support))
    act, upd = table.action_support, table.update_support
    o, a = rng.choice(pomdp.observations), rng.choice(pomdp.actions)
    yield change(memories=table.memories + (m,))
    yield change(initial="ghost")
    yield change(action_support={**act, "ghost": (a,)})
    yield change(action_support={**act, m: act[m] + ("zap",)})
    yield change(update_support={**upd, ("ghost", o, a): (m,)})
    yield change(update_support={**upd, (m, "o_ghost", a): (m,)})
    yield change(update_support={**upd, (m, o, "zap"): (m,)})
    yield change(update_support={**upd, key: upd[key] + ("ghost",)})
    yield change(initial="ghost",
                 update_support={**upd, (m, o, "zap"): ("ghost",)})


def test_structural_errors_are_worded_by_validate_strategy():
    rng = random.Random(4711)
    for _ in range(30):
        pomdp = random_pomdp(rng)
        strategy = random_strategy(rng, pomdp)
        colors = {s: 0 for s in pomdp.states}
        assert validate_strategy(pomdp, strategy) == []
        build_product_chain(pomdp, strategy)
        compute_rec_functions(pomdp, strategy, colors)
        for bad in _mutations(rng, pomdp, strategy):
            problems = validate_strategy(pomdp, bad)
            assert problems
            for build in (lambda: build_product_chain(pomdp, bad),
                          lambda: compute_rec_functions(pomdp, bad, colors)):
                with pytest.raises(StructuralError) as err:
                    build()
                assert str(err.value) == "; ".join(problems)


# -- differential: the chain against a plain name-level reference --

def _restricted(rng, pomdp):
    """The model with one action per restricted observation.

    The rows of the now-unavailable actions stay in the model, so only
    the availability rule keeps their edges out of the chain.
    """
    available = {o: frozenset({rng.choice(pomdp.actions)})
                 for o in pomdp.observations if rng.random() < 0.5}
    return dataclasses.replace(pomdp, available=available)


def _partial(rng, strategy):
    """The strategy's table with some updates dropped (dead ends appear)."""
    upd = {k: v for k, v in strategy.supports.update_support.items()
           if rng.random() < 0.8}
    return dataclasses.replace(strategy.supports, update_support=upd)


def _reference(pomdp, table, colors):
    """Successors pair by pair, reachability by BFS, bottom classes by
    mutual reachability; all in name order by (state index, memory index)."""
    order = {(s, m): (pomdp.state_index[s], table.memories.index(m))
             for s in pomdp.states for m in table.memories}
    full = {}
    for s, m in sorted(order, key=order.get):
        out = set()
        for a in table.action_support.get(m, ()):
            if a not in pomdp.available_at(pomdp.obs_map[s]):
                continue
            for t in pomdp.supp(s, a):
                for m2 in table.update_support.get((m, pomdp.obs_map[t], a), ()):
                    out.add((t, m2))
        full[(s, m)] = tuple(sorted(out, key=order.get))

    def reach(start):
        seen, queue = {start}, collections.deque([start])
        while queue:
            for t in full[queue.popleft()]:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return seen

    reaches = {n: reach(n) for n in full}
    recurrent = {n for n in full if all(n in reaches[t] for t in reaches[n])}
    initial = (pomdp.initial_state, table.initial)
    nodes = tuple(sorted(reaches[initial], key=order.get))
    bottoms = sorted({tuple(sorted(reaches[n], key=order.get))
                      for n in nodes if n in recurrent},
                     key=lambda c: order[c[0]])
    set_rec = {m: {s: frozenset(frozenset(colors[t] for t, _ in reaches[r]
                                          if full[r])
                                for r in reaches[(s, m)] if r in recurrent)
                   for s in pomdp.states} for m in table.memories}
    bool_rec = {m: {s: int((s, m) in recurrent) for s in pomdp.states}
                for m in table.memories}
    return (nodes, {n: full[n] for n in nodes}, tuple(bottoms), full,
            set_rec, bool_rec)


def test_chain_matches_a_reachability_reference():
    rng = random.Random(27182)
    restricted = 0
    for i in range(200):
        pomdp = random_pomdp(rng, max_states=5)
        if i % 2:
            pomdp = _restricted(rng, pomdp)
            restricted += any(len(acts) < len(pomdp.actions)
                              for acts in pomdp.available.values())
        strategy = random_strategy(rng, pomdp)
        if i % 3 == 0:
            strategy = _partial(rng, strategy)
        colors = {s: rng.randint(0, 3) for s in pomdp.states}
        nodes, succ, bottoms, full, set_rec, bool_rec = _reference(
            pomdp, strategy.supports, colors)
        chain = build_product_chain(pomdp, strategy)
        assert chain.nodes == nodes
        assert chain.succ == succ
        assert chain.bottom_sccs() == bottoms
        got = full_product_graph(pomdp, strategy)
        assert got == full and list(got) == list(full)
        rec = compute_rec_functions(pomdp, strategy, colors)
        assert rec.set_rec == set_rec
        assert rec.bool_rec == bool_rec
    assert restricted > 20


# -- the condensation kernel against a recursive Tarjan --

def _tarjan(succ, roots):
    """Textbook recursive Tarjan from each root not yet visited, in turn:
    the components as sets, in the order they complete, and how many
    roots had already been reached."""
    index, low, stack, comps = {}, {}, [], []
    revisited = 0

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in succ[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while not comp or v not in comp:
                comp.add(stack.pop())
            comps.append(frozenset(comp))

    for r in roots:
        if r in index:
            revisited += 1
        else:
            visit(r)
    return comps, revisited


def test_condense_matches_a_recursive_tarjan():
    """Seeded random graphs with self-loops, pairs without successors
    (stopped plays) and several roots in no particular order, some of
    them reached from earlier ones."""
    rng = random.Random(60221)
    seen = collections.Counter()
    for i in range(600):
        size = rng.randint(1, 14)
        succ = [tuple(sorted(rng.sample(range(size), min(size, rng.choice(
            (0, 1, 1, 2, 2, 3)))))) for _ in range(size)]
        roots = ((rng.randrange(size),), range(size),
                 rng.choices(range(size), k=rng.randint(2, 6)))[i % 3]
        asked = []
        graph, comps, comp_of, is_bottom = _condense(
            lambda n: asked.append(n) or succ[n], roots, size)
        expected, revisited = _tarjan(succ, roots)
        reached = set().union(*expected)
        assert sorted(asked) == sorted(reached)  # once per reached pair
        assert graph == {n: succ[n] for n in reached}
        assert [frozenset(comp) for comp in comps] == expected
        assert comp_of == [next((ci for ci, comp in enumerate(expected)
                                 if n in comp), -1) for n in range(size)]
        assert all(comp_of[t] <= comp_of[n] for n in reached for t in succ[n])
        assert is_bottom == [all(t in comp for n in comp for t in succ[n])
                             for comp in expected]
        seen["self-loop"] += any(n in succ[n] for n in reached)
        seen["stopped"] += any(not succ[n] for n in reached)
        seen["revisited root"] += revisited > 0 and i % 3 == 2
        seen["bottom class"] += sum(map(len, compress(comps, is_bottom))) > 1
    assert min(seen.values()) > 100, seen
