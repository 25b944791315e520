"""Belief-observation rewriting: construction invariants and the predicate."""

import random
from collections import Counter
from fractions import Fraction
from typing import Iterable

import pytest

from pomparity import (ContractError, Objective, Pomdp, ResourceLimitError,
                       StructuralError, almost_cobuchi_red,
                       almost_parity_to_cobuchi, belief_update,
                       is_belief_observation, objective_as_parity,
                       positive_buchi_red, validate)
from pomparity import beliefobs
from pomparity.beliefobs import obs_graph
from pomparity.solve import _safe_obs
from pomparity.strategy import MemoryElement
from conftest import random_belief_obs_pomdp, random_pomdp


@pytest.fixture(scope="module")
def ex1_rewrite(request):
    pomdp, objective = request.getfixturevalue("ex1")
    base, parity = objective_as_parity(pomdp, objective)
    return base, parity.priority_map, almost_cobuchi_red(base, parity.priority_map)


@pytest.fixture(scope="module")
def reduced_ex1_rewrite(request):
    """``ex1`` reduced to co-Buchi, its priorities, and their rewrite."""
    red = almost_parity_to_cobuchi(
        *objective_as_parity(*request.getfixturevalue("ex1")))
    prio = {s: 2 if s in red.objective.targets else 1 for s in red.pomdp.states}
    return red.pomdp, prio, almost_cobuchi_red(red.pomdp, prio)


def test_ex1_is_belief_observation(ex1):
    pomdp, _ = ex1
    assert is_belief_observation(pomdp)


def test_shared_initial_observation_is_not_belief_observation():
    pomdp = Pomdp(
        states=("s0", "s1"), actions=("a",), observations=("o",),
        obs_map={"s0": "o", "s1": "o"},
        transitions={("s0", "a"): {"s1": Fraction(1)},
                     ("s1", "a"): {"s0": Fraction(1)}},
        initial_state="s0")
    assert not is_belief_observation(pomdp)


def test_partial_class_belief_is_detected():
    # after one step the belief is {s1}, a strict subset of o1's class
    pomdp = Pomdp(
        states=("s0", "s1", "s2"), actions=("a",),
        observations=("o0", "o1"),
        obs_map={"s0": "o0", "s1": "o1", "s2": "o1"},
        transitions={("s0", "a"): {"s1": Fraction(1)},
                     ("s1", "a"): {"s1": Fraction(1)},
                     ("s2", "a"): {"s2": Fraction(1)}},
        initial_state="s0")
    assert not is_belief_observation(pomdp)


def test_generated_instances_hold_the_property():
    rng = random.Random(7000)
    for _ in range(25):
        assert is_belief_observation(random_belief_obs_pomdp(rng))


def test_cobuchi_rewrite_is_belief_observation(ex1_rewrite):
    _, _, bo = ex1_rewrite
    assert validate(bo.pomdp) == []
    assert is_belief_observation(bo.pomdp)


def test_rewrite_observations_reveal_elements(ex1_rewrite):
    base, prio, bo = ex1_rewrite
    for name, elem in bo.elements.items():
        # element beliefs live inside one observation class of the base model
        classes = {base.obs_map[s] for s in elem.belief}
        assert len(classes) == 1
        members = [s for s in bo.pomdp.states if bo.pomdp.obs_map[s] == name]
        assert sorted(members) == sorted(f"A~{s}~{name}" for s in elem.belief)
        for s in elem.belief:
            assert bo.priority[f"A~{s}~{name}"] == prio[s]


def test_rewrite_initial_moves(ex1_rewrite):
    base, prio, bo = ex1_rewrite
    assert bo.pomdp.initial_state == bo.init_state
    assert bo.pomdp.available_at(bo.init_obs) == frozenset(bo.initial_moves)
    for name in bo.initial_moves:
        assert bo.elements[name].belief == frozenset({bo.root})
        row = bo.pomdp.dist(bo.init_state, name)
        assert row == {f"A~{bo.root}~{name}": Fraction(1)}
    # the root observes alone, so no commitment is offered at priority 1
    assert len(bo.initial_moves) == 1
    assert bo.elements[bo.initial_moves[0]].brec == frozenset()


def test_rewrite_memory_selection_states(ex1_rewrite):
    base, prio, bo = ex1_rewrite
    for (ename, a, o), qname in bo.memsel.items():
        elem = bo.elements[ename]
        new_belief = belief_update(base, elem.belief, a, o)
        offered = bo.moves[qname]
        assert offered
        for e2name in offered:
            assert bo.elements[e2name].belief == new_belief
        members = [s for s in bo.pomdp.states
                   if bo.pomdp.obs_map[s] == qname]
        assert sorted(members) == sorted(f"M~{t}~{qname}" for t in new_belief)
        for t in new_belief:
            mname = f"M~{t}~{qname}"
            assert bo.priority[mname] == prio[t]
            for e2name in offered:
                assert (bo.pomdp.dist(mname, e2name)
                        == {f"A~{t}~{e2name}": Fraction(1)})


def test_rewrite_certificates_claim_only_priority_two(ex1_rewrite):
    _, _, bo = ex1_rewrite
    certified = bo.certified_recurrent()
    assert certified
    for name in certified:
        assert bo.priority[name] == 2
        ename = bo.obs_map[name]
        elem = bo.elements[ename]
        (s,) = [s for s in elem.belief if f"A~{s}~{ename}" == name]
        assert s in elem.brec
        assert elem.srec_map[s] == frozenset({frozenset({2})})


def without_an_action(pomdp, rng):
    """The model with one action made unavailable at one observation."""
    o, a = rng.choice(pomdp.observations), rng.choice(pomdp.actions)
    available = {o: frozenset(pomdp.actions) - {a}}
    model = Pomdp(pomdp.states, pomdp.actions, pomdp.observations,
                  pomdp.obs_map, {(s, b): dict(pomdp.dist(s, b))
                                  for (s, b) in pomdp.transitions
                                  if (pomdp.obs_map[s], b) != (o, a)},
                  pomdp.initial_state, available)
    assert validate(model) == []
    return model


def assert_commitment_invariant(bo):
    """The beliefobs module docstring's co-Buchi commitment invariant and
    its consequences: every branch offers a move, the certified states are
    the committed ones with table {{2}} and priority 2, and they are
    closed: every allowed action of one leads, through every offered
    element move, to certified states.  Returns the certified states and
    the element moves the closure check followed."""
    good = frozenset({frozenset({2})})
    certified = set()
    for ename, elem in bo.elements.items():
        assert all(frozenset({2}) in table for table in elem.srec_map.values())
        for s in elem.belief & elem.brec:
            assert elem.srec_map[s] == good
            assert bo.priority[f"A~{s}~{ename}"] == 2
        certified.update(
            f"A~{s}~{ename}" for s in elem.belief
            if s in elem.brec and elem.srec_map[s] == good
            and bo.priority[f"A~{s}~{ename}"] == 2)
    assert all(bo.moves[q] for q in bo.memsel.values())
    assert bo.certified_recurrent() == certified
    followed = 0
    for name in certified:
        for a in bo.available[bo.obs_map[name]]:
            row = bo.succ[(name, a)]
            if row == (bo.sink_state,):
                continue
            for m in row:
                offered = bo.moves[bo.obs_map[m]]
                assert {f"A~{bo.msel[m]}~{e}" for e in offered} <= certified
                followed += len(offered)
    return len(certified), followed


def seeded_cobuchi_rewrites(seed, count):
    """(model, priorities, rewrite) for ``count`` random co-Buchi models;
    every other model has one action made unavailable at one observation."""
    rng = random.Random(seed)
    for i in range(count):
        pomdp = random_pomdp(rng)
        if i % 2:
            pomdp = without_an_action(pomdp, rng)
        prio = {s: rng.choice((1, 2)) for s in pomdp.states}
        yield pomdp, prio, almost_cobuchi_red(pomdp, prio)


def test_cobuchi_rewrites_keep_the_commitment_invariant(reduced_ex1_rewrite):
    certified = followed = 0
    for _, _, bo in seeded_cobuchi_rewrites(7003, 300):
        counts = assert_commitment_invariant(bo)
        certified += counts[0]
        followed += counts[1]
    assert certified > 1000 and followed > 1000
    assert assert_commitment_invariant(reduced_ex1_rewrite[2]) == (15513, 248048)


def reference_allowed(elem, action, pomdp, prio):
    """The co-Buchi allowance from its definition: no committed belief
    state reaches a state of priority other than 2 under the action."""
    return all(prio[t] == 2 for s in elem.belief & elem.brec
               for t in pomdp.supp(s, action))


def test_actions_are_allowed_by_the_reference_predicate(reduced_ex1_rewrite):
    """An (element, action) has memory-selection branches exactly when the
    reference predicate allows it; otherwise its rows are the sink row."""
    counts = Counter()
    rewrites = [*seeded_cobuchi_rewrites(7004, 150), reduced_ex1_rewrite]
    for pomdp, prio, bo in rewrites:
        branched = {(e, a) for e, a, _ in bo.memsel}
        for ename, elem in bo.elements.items():
            for a in bo.available[ename]:
                allowed = reference_allowed(elem, a, pomdp, prio)
                assert ((ename, a) in branched) == allowed
                rows = {bo.succ[(f"A~{s}~{ename}", a)] for s in elem.belief}
                assert (rows == {(bo.sink_state,)}) == (not allowed)
                counts[allowed] += 1
    assert counts[True] > 4000 and counts[False] > 4000


def test_the_safety_stage_keeps_the_initial_observation(reduced_ex1_rewrite):
    """The beliefobs docstring's claim: the safe part of a co-Buchi rewrite
    holds its initial observation and every element without a committed
    belief state."""
    checked = 0
    for _, _, bo in [*seeded_cobuchi_rewrites(7005, 300), reduced_ex1_rewrite]:
        y, _, _ = _safe_obs(obs_graph(bo),
                            set(bo.observations) - {bo.sink_obs})
        assert bo.init_obs in y
        for ename, elem in bo.elements.items():
            if not elem.belief & elem.brec:
                assert ename in y
                checked += 1
    assert checked > 1000


def test_rewrite_objective_matches_priorities(ex1_rewrite):
    _, _, bo = ex1_rewrite
    assert bo.priority[bo.sink_state] == 1


def test_buchi_rewrite_carries_no_certificates(ex2fix):
    pomdp, objective = ex2fix
    prio = {s: 0 if s in objective.targets else 1 for s in pomdp.states}
    bb = positive_buchi_red(pomdp, prio)
    assert validate(bb.pomdp) == []
    assert is_belief_observation(bb.pomdp)
    assert bb.certified_recurrent() == frozenset()
    for elem in bb.elements.values():
        assert elem.brec == frozenset()


def test_rewrite_can_be_rerooted(ex2fix):
    pomdp, objective = ex2fix
    prio = {s: 0 if s in objective.targets else 1 for s in pomdp.states}
    bb = positive_buchi_red(pomdp, prio, root="X")
    assert bb.root == "X"
    for name in bb.initial_moves:
        assert bb.elements[name].belief == frozenset({"X"})
    with pytest.raises(StructuralError):
        positive_buchi_red(pomdp, prio, root="nope")


def test_rewrite_priority_range_is_enforced(ex1):
    pomdp, objective = ex1
    base, parity = objective_as_parity(pomdp, objective)
    zeros = {s: 0 for s in base.states}
    with pytest.raises(ContractError):
        almost_cobuchi_red(base, zeros)
    twos = {s: 2 for s in base.states}
    with pytest.raises(ContractError):
        positive_buchi_red(base, twos)
    partial = dict(parity.priority_map)
    partial.pop("Y")
    with pytest.raises(ContractError):
        almost_cobuchi_red(base, partial)


def test_rewrite_respects_its_budget(ex1):
    pomdp, objective = ex1
    base, parity = objective_as_parity(pomdp, objective)
    with pytest.raises(ResourceLimitError):
        almost_cobuchi_red(base, parity.priority_map, budget=5)


def test_random_models_rewrite_cleanly():
    rng = random.Random(7001)
    for _ in range(15):
        pomdp = random_pomdp(rng)
        prio = {s: rng.choice((1, 2)) for s in pomdp.states}
        bo = almost_cobuchi_red(pomdp, prio)
        assert validate(bo.pomdp) == []
        assert is_belief_observation(bo.pomdp)


def memory_action_allowed(candidate: MemoryElement,
                          context: tuple[Iterable[str], MemoryElement, str],
                          pomdp: Pomdp) -> bool:
    """May the play adopt ``candidate`` after ``action`` from ``previous``?

    ``context`` is the (new belief, previous element, action) triple that
    identifies a memory-selection observation.  Two conditions: committed
    belief states only reach committed states (commitment is permanent),
    and along every model edge the class table may only shrink.
    """
    new_belief, previous, action = context
    if candidate.belief != frozenset(new_belief):
        return False
    for s in previous.belief & previous.brec:
        for t in pomdp.supp(s, action):
            if t not in candidate.brec:
                return False
    for s in pomdp.states:
        if action not in pomdp.available_at(pomdp.obs_map[s]):
            continue
        ls = previous.srec_map[s]
        for t in pomdp.supp(s, action):
            if not candidate.srec_map[t] <= ls:
                return False
    return True


def test_every_generated_move_passes_memory_action_allowed():
    # the beliefobs module docstring's claim, checked on every offered
    # element move
    rng = random.Random(7002)
    checked = 0
    for _ in range(300):
        pomdp = random_pomdp(rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            prio = {s: rng.choice(values) for s in pomdp.states}
            bo = rewrite(pomdp, prio)
            for (ename, a, o), qname in bo.memsel.items():
                previous = bo.elements[ename]
                context = (belief_update(pomdp, previous.belief, a, o),
                           previous, a)
                for move in bo.moves[qname]:
                    assert memory_action_allowed(bo.elements[move], context,
                                                 pomdp)
                    checked += 1
    assert checked > 10000


def assert_supports_are_the_playable_model(bo):
    played = bo.pomdp
    assert bo.states == played.states
    for s, a in played.transitions:
        assert bo.supp(s, a) == played.supp(s, a)
    for o in played.observations:
        assert tuple(bo.states_with_obs(o)) == played.states_with_obs(o)
        assert bo.available[o] == played.available_at(o)


def test_support_graph_is_its_playable_model(ex1_rewrite):
    """The recorded supports answer as the lazily built weighted model."""
    rng = random.Random(8005)
    for _ in range(200):
        base = random_pomdp(rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            prio = {s: rng.choice(values) for s in base.states}
            assert_supports_are_the_playable_model(rewrite(base, prio))
    assert_supports_are_the_playable_model(ex1_rewrite[2])


def test_elements_are_interned(ex1, monkeypatch):
    """The construction calls ``MemoryElement.make`` for no element; reading
    ``elements`` calls it once per distinct element, each equal to a fresh
    build from its key.  No row is stored for a memory-selection state and
    an offered move."""
    make = MemoryElement.make
    made = []

    def counting(*args):
        made.append(args)
        return make(*args)

    monkeypatch.setattr(MemoryElement, "make", counting)
    base, parity = objective_as_parity(*ex1)
    rewrites = [(almost_cobuchi_red, base, parity.priority_map)]
    rng = random.Random(8007)
    for _ in range(60):
        model = random_pomdp(rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            rewrites.append((rewrite, model,
                             {s: rng.choice(values) for s in model.states}))
    for rewrite, model, prio in rewrites:
        made.clear()
        bo = rewrite(model, prio)
        assert made == []
        elements = bo.elements
        assert len(made) == len(elements) == len(bo.keys)
        assert list(elements) == list(bo.keys)
        names = model.states
        for name, elem in elements.items():
            belief, brec, tables = bo.keys[name]
            assert elem == make([names[i] for i in belief],
                                [names[i] for i in brec],
                                dict(zip(names, tables)))
            assert elem == make(elem.belief, elem.brec, elem.srec_map)
        assert len(set(elements.values())) == len(elements)
        for qname, offered in bo.moves.items():
            for mname in bo.states_with_obs(qname):
                assert not any((mname, e) in bo.succ for e in offered)


def test_shared_branch_moves_are_the_enumerated_ones(ex1, monkeypatch):
    """Every memory-selection observation offers, in order, exactly the
    moves a fresh enumeration of its branch gives, though the construction
    enumerates each branch signature only once."""
    element_moves = beliefobs._element_moves
    enumerated = []

    def counting(*args):
        found = element_moves(*args)
        if not found:
            return found
        signature, moves = found

        def counted(new_belief):
            enumerated.append(new_belief)
            return moves(new_belief)
        return signature, counted

    monkeypatch.setattr(beliefobs, "_element_moves", counting)
    red = almost_parity_to_cobuchi(*objective_as_parity(*ex1))
    cases = [(almost_cobuchi_red, beliefobs.COBUCHI_MODE, red.pomdp,
              {s: 2 if s in red.objective.targets else 1
               for s in red.pomdp.states})]
    rng = random.Random(8009)
    for _ in range(60):
        model = random_pomdp(rng)
        for rewrite, mode, values in (
                (almost_cobuchi_red, beliefobs.COBUCHI_MODE, (1, 2)),
                (positive_buchi_red, beliefobs.BUCHI_MODE, (0, 1))):
            cases.append((rewrite, mode, model,
                          {s: rng.choice(values) for s in model.states}))
    for i, (rewrite, mode, model, prio) in enumerate(cases):
        enumerated.clear()
        bo = rewrite(model, prio)
        if i == 0:
            assert len(enumerated) < len(bo.memsel) == 3454
        name_of = {elem: name for name, elem in bo.elements.items()}
        names, index = model.states, model.state_index
        rows = model.index_supports[1]
        by_index = [prio[s] for s in names]
        for (ename, a, o), q in bo.memsel.items():
            elem = bo.elements[ename]
            _, moves = element_moves(
                rows, by_index, mode, model.action_index[a],
                tuple(elem.srec_map[s] for s in names),
                frozenset(map(index.__getitem__, elem.belief & elem.brec)),
                beliefobs.DEFAULT_STATE_BUDGET)
            new_belief = tuple(sorted(map(
                index.__getitem__, belief_update(model, elem.belief, a, o))))
            fresh = tuple(name_of[MemoryElement.make(
                              [names[i] for i in belief],
                              [names[i] for i in brec],
                              dict(zip(names, tables)))]
                          for belief, brec, tables in moves(new_belief))
            assert bo.moves[q] == fresh
            assert bo.available[q] == frozenset(fresh)
