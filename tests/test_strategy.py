"""Strategy projection: graph invariants, verdict and recurrence preservation."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pomparity import (ContractError, ExactnessError, FiniteMemoryStrategy,
                       MemoryElement, Objective, ProjectionGraph,
                       StructuralError, SupportStrategy, WinningMode,
                       belief_update, build_product_chain, build_projection_graph,
                       compute_rec_functions, evaluate_qualitative,
                       memory_bound, objective_as_parity, objective_colors,
                       parse_model, parse_strategy, project_strategy,
                       serialize_strategy, solve_parity_fm, uniform)
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


@settings(max_examples=100, derandomize=True)
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


def name_sorted(pool):
    """Non-empty, name-sorted tuples drawn from a pool."""
    return st.lists(st.sampled_from(pool), min_size=1, unique=True).map(
        lambda xs: tuple(sorted(xs)))


@st.composite
def support_tables(draw):
    """Support tables with name-sorted, non-empty tuples.  Names mix
    one- and two-digit suffixes so that name order differs from index
    order."""
    memories = tuple(draw(st.lists(st.sampled_from(
        ("m", "m10", "m2", "n", "v1", "v10", "v9")), min_size=1, unique=True)))
    keys = st.tuples(st.sampled_from(memories),
                     st.sampled_from(("o1", "o10", "o2")),
                     st.sampled_from(("a", "b10", "b2")))
    element = st.builds(MemoryElement.make,
                        belief=st.frozensets(st.sampled_from("st"), min_size=1),
                        brec=st.frozensets(st.sampled_from("st")),
                        srec=st.just({"s": [[0, 1]], "t": []}))
    return SupportStrategy(
        memories=memories,
        action_support=draw(st.dictionaries(
            st.sampled_from(memories), name_sorted(("a", "b10", "b2")))),
        update_support=draw(st.dictionaries(keys, name_sorted(memories))),
        initial=draw(st.sampled_from(memories)),
        elements=draw(st.dictionaries(st.sampled_from(memories), element)))


@settings(max_examples=100, derandomize=True)
@given(support_tables())
def test_weighting_a_table_gives_the_table_back(table):
    weighted = table.to_strategy()
    assert weighted.supports == table
    assert FiniteMemoryStrategy.supports.func(weighted) == table
    assert serialize_strategy(table) == serialize_strategy(weighted)


def test_uniform_refuses_empty_input():
    with pytest.raises(ContractError):
        uniform([])


def element_sort_key(pomdp, element):
    """Total, deterministic order on elements (belief, brec, srec encoding)."""
    sidx = pomdp.state_index
    belief = tuple(sorted(sidx[s] for s in element.belief))
    brec = tuple(sorted(sidx[s] for s in element.brec))
    srec = tuple((s, tuple(sorted(tuple(sorted(z)) for z in zs)))
                 for s, zs in element.srec)
    return (belief, brec, srec)


def reference_projection_graph(pomdp, strategy, colors):
    """The projection graph at name level: every vertex re-runs the
    update rows of each memory merged into it."""
    rec = compute_rec_functions(pomdp, strategy, colors)
    table = strategy.supports
    keys: dict[str, tuple] = {}
    reps: dict[tuple, list[str]] = {}
    for m in table.memories:
        brec = frozenset(s for s in pomdp.states if rec.bool_rec[m][s])
        srec = tuple(sorted((s, rec.set_rec[m][s]) for s in pomdp.states))
        key = (brec, srec)
        keys[m] = key
        reps.setdefault(key, []).append(m)
    built: dict[tuple[frozenset[str], tuple], MemoryElement] = {}
    frontier: list[MemoryElement] = []

    def vertex(belief: frozenset[str], key: tuple) -> MemoryElement:
        v = built.get((belief, key))
        if v is None:
            v = built[(belief, key)] = MemoryElement(belief, *key)
            frontier.append(v)
        return v

    sort_key = lambda v: element_sort_key(pomdp, v)
    obs_map = pomdp.obs_map
    initial = vertex(frozenset({pomdp.initial_state}), keys[table.initial])
    edges: dict[MemoryElement, dict[str, tuple[MemoryElement, ...]]] = {}
    while frontier:
        v = frontier.pop()
        out: dict[str, set[MemoryElement]] = {}
        split: dict[str, dict[str, frozenset[str]]] = {}
        avail = pomdp.available_at(obs_map[next(iter(v.belief))])
        for m in reps[(v.brec, v.srec)]:
            for a in table.action_support.get(m, ()):
                if a not in avail:
                    continue
                by_obs = split.get(a)
                if by_obs is None:
                    groups: dict[str, set[str]] = {}
                    for s in v.belief:
                        for t in pomdp.supp(s, a):
                            groups.setdefault(obs_map[t], set()).add(t)
                    by_obs = split[a] = {o: frozenset(ts)
                                         for o, ts in groups.items()}
                for o, succ_belief in by_obs.items():
                    for m2 in table.update_support.get((m, o, a), ()):
                        out.setdefault(a, set()).add(vertex(succ_belief, keys[m2]))
        edges[v] = {a: tuple(sorted(vs, key=sort_key))
                    for a, vs in sorted(out.items())}
    vertices = tuple(sorted(built.values(), key=sort_key))
    return ProjectionGraph(pomdp=pomdp, initial=initial, vertices=vertices,
                           edges=edges)


def assert_same_projection(pomdp, strategy, colors) -> bool:
    """The projection graph equals the name-level one, edge order included;
    returns whether two or more memories share a summary."""
    got = build_projection_graph(pomdp, strategy, colors)
    want = reference_projection_graph(pomdp, strategy, colors)
    assert got.initial == want.initial
    assert got.vertices == want.vertices
    assert ({v: list(out.items()) for v, out in got.edges.items()}
            == {v: list(out.items()) for v, out in want.edges.items()})
    keys = summaries(pomdp, strategy, colors)
    return len(set(keys.values())) < len(keys)


def test_the_projection_walk_matches_the_name_level_one():
    """Seeded models under parity and Muller colours, some with an action
    unavailable at an observation, strategies total and partial."""
    rng = random.Random(3008)
    merged = restricted = 0
    for i in range(150):
        pomdp = random_pomdp(rng, max_states=4)
        if i % 3 == 0:
            o = rng.choice(pomdp.observations[1:])
            pomdp = dataclasses.replace(pomdp, available={o: {"a"}})
            restricted += 1
        if i % 2:
            objective = random_parity(rng, pomdp, top=3)
        else:
            objective = Objective.muller(
                {s: rng.randint(0, 2) for s in pomdp.states}, [{0}, {1, 2}])
        sigma = random_strategy(rng, pomdp, max_memories=4)
        if i % 4 == 0:
            sigma = _partial(rng, sigma)
        merged += assert_same_projection(pomdp, sigma, objective_colors(objective))
    assert merged >= 60 and restricted == 50


def test_the_projection_walk_matches_the_name_level_one_on_witnesses():
    rng = random.Random(3009)
    witnesses = merged = 0
    for _ in range(40):
        pomdp = random_pomdp(rng, max_states=3)
        objective = random_parity(rng, pomdp, top=3)
        for mode in (ALMOST, POSITIVE):
            decision = solve_parity_fm(pomdp, objective, mode)
            if decision.witness is not None:
                witnesses += 1
                merged += assert_same_projection(
                    pomdp, decision.witness, objective.priority_map)
    assert witnesses >= 50 and merged >= 20


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
                assert any(a in sigma.supports.action_support.get(m, ())
                           for m in matching)
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
        assert (rec_proj.set_rec[projected.initial][s0]
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


STOPPING_MODEL = """\
states: s0 g b
actions: a c
observations: o0 o1 o2
obs: s0 : o0
obs: g : o1
obs: b : o2
init: s0
trans: s0 a -> g 1
trans: g a -> b 1
trans: b a -> b 1
trans: s0 c -> s0 1
trans: g c -> g 1
trans: b c -> b 1
objective: buchi g
"""

STOPPING_STRATEGY = """\
memories: m n k
init: m
act: m -> a 1
act: k -> c 1
update: m o1 a -> n 1
update: k o0 c -> k 1
update: k o1 c -> k 1
update: k o2 c -> k 1
"""


def test_projection_keeps_a_stopped_memory_apart():
    """n plays nothing and k loops on c, so (g, n) is a dead end and (g, k)
    a live class of the same colours; merging them would let the
    projection loop at g where the strategy stops."""
    pomdp, objective = parse_model(STOPPING_MODEL)
    _, parity = objective_as_parity(pomdp, objective)
    sigma = parse_strategy(STOPPING_STRATEGY)
    keys = summaries(pomdp, sigma, parity.priority_map)
    assert keys["n"] != keys["k"]
    projected = project_strategy(pomdp, sigma, parity.priority_map)
    for mode in (ALMOST, POSITIVE):
        assert not chain_wins(pomdp, objective, mode, sigma)
        assert not chain_wins(pomdp, objective, mode, projected)


def test_missing_colours_are_named_before_the_condensation(ex1, monkeypatch):
    """``project_strategy`` names the uncoloured states, and it does so
    without first condensing S x M."""
    pomdp, _ = ex1
    colors = {s: 0 for s in pomdp.states if s not in ("X'", "Y")}

    def condense(*args):
        raise AssertionError("S x M was condensed before the colours were checked")

    monkeypatch.setattr("pomparity.chain._condense", condense)
    with pytest.raises(StructuralError) as err:
        project_strategy(pomdp, alternating(pomdp), colors)
    assert str(err.value) == "no colour for states: X', Y"


def _partial(rng, strategy):
    """The strategy's table with some moves and updates dropped."""
    table = strategy.supports
    acts = {m: a for m, a in table.action_support.items() if rng.random() < 0.75}
    upd = {k: v for k, v in table.update_support.items() if rng.random() < 0.6}
    return dataclasses.replace(table, action_support=acts,
                               update_support=upd).to_strategy()


def test_projection_of_a_stopping_strategy_preserves_both_verdicts():
    rng = random.Random(3007)
    stopped = 0
    for _ in range(200):
        pomdp = random_pomdp(rng, max_states=3)
        objective = random_parity(rng, pomdp)
        sigma = _partial(rng, random_strategy(rng, pomdp))
        chain = build_product_chain(pomdp, sigma)
        stopped += not all(chain.succ.values())
        projected = project_strategy(pomdp, sigma, objective.priority_map)
        for mode in (ALMOST, POSITIVE):
            assert (chain_wins(pomdp, objective, mode, projected)
                    == chain_wins(pomdp, objective, mode, sigma))
    assert stopped > 50


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
