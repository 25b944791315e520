"""Belief-observation rewriting: construction invariants and the predicate."""

import random
from fractions import Fraction
from typing import Iterable

import pytest

from pomparity import (ContractError, Objective, Pomdp, ResourceLimitError,
                       StructuralError, almost_cobuchi_red, belief_update,
                       is_belief_observation, objective_as_parity,
                       positive_buchi_red, validate)
from pomparity.strategy import MemoryElement
from conftest import random_belief_obs_pomdp, random_pomdp


@pytest.fixture(scope="module")
def ex1_rewrite(request):
    pomdp, objective = request.getfixturevalue("ex1")
    base, parity = objective_as_parity(pomdp, objective)
    return base, parity.priority_map, almost_cobuchi_red(base, parity.priority_map)


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


def test_depth_must_be_positive(ex1):
    with pytest.raises(ContractError):
        is_belief_observation(ex1[0], depth=0)


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
        for e2name in offered:
            assert bo.elements[e2name].belief == new_belief
        members = [s for s in bo.pomdp.states
                   if bo.pomdp.obs_map[s] == qname]
        assert sorted(members) == sorted(f"M~{t}~{qname}" for t in new_belief)
        for t in new_belief:
            mname = f"M~{t}~{qname}"
            assert bo.priority[mname] == prio[t]
            if offered:
                for e2name in offered:
                    assert (bo.pomdp.dist(mname, e2name)
                            == {f"A~{t}~{e2name}": Fraction(1)})
            else:
                assert (bo.pomdp.dist(mname, bo.reject_action)
                        == {bo.sink_state: Fraction(1)})


def test_rewrite_certificates_claim_only_priority_two(ex1_rewrite):
    _, _, bo = ex1_rewrite
    certified = bo.certified_recurrent()
    assert certified
    for name in certified:
        assert bo.priority[name] == 2
        s, ename = bo.actionsel[name]
        elem = bo.elements[ename]
        assert s in elem.brec
        assert elem.srec_of(s) == frozenset({frozenset({2})})


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
        ls = previous.srec_of(s)
        for t in pomdp.supp(s, action):
            if not candidate.srec_of(t) <= ls:
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
    """One ``MemoryElement.make`` call per distinct element, and no stored
    row for a memory-selection state and an offered move."""
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
        assert len(made) == len(bo.elements)
        for elem in bo.elements.values():
            assert elem == make(elem.belief, elem.brec, elem.srec_map)
        assert len(set(bo.elements.values())) == len(bo.elements)
        for qname, offered in bo.moves.items():
            for mname in bo.states_with_obs(qname):
                assert not any((mname, e) in bo.succ for e in offered)
