"""Belief-observation rewriting: construction invariants and the predicate."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import pytest

from pomparity import (ContractError, Objective, Pomdp, ResourceLimitError,
                       StructuralError, almost_cobuchi_red,
                       almost_parity_to_cobuchi, belief_update,
                       is_belief_observation, objective_as_parity,
                       positive_buchi_red, validate)
from pomparity import beliefobs
from pomparity.modelio import load_fixture, parse_model, serialize_model
from pomparity.solve import _buchi_obs, _safe_obs
from pomparity.strategy import MemoryElement
from conftest import (SPLIT_BUDGET_ERROR, SPLIT_MODEL, random_belief_obs_pomdp,
                      random_pomdp, run_core)


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
            assert bo.priority(bo.pomdp.state_index[f"A~{s}~{name}"]) == prio[s]


def test_rewrite_initial_moves(ex1_rewrite):
    base, prio, bo = ex1_rewrite
    assert bo.pomdp.initial_state == "start"
    assert bo.pomdp.available_at(bo.init_obs) == frozenset(bo.initial_moves)
    for name in bo.initial_moves:
        assert bo.elements[name].belief == frozenset({bo.root})
        row = bo.pomdp.dist("start", name)
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
            assert bo.priority(bo.pomdp.state_index[mname]) == prio[t]
            for e2name in offered:
                assert (bo.pomdp.dist(mname, e2name)
                        == {f"A~{t}~{e2name}": Fraction(1)})


def test_rewrite_certificates_claim_only_priority_two(ex1_rewrite):
    _, _, bo = ex1_rewrite
    certified = bo.certified_recurrent()
    assert certified
    for i in certified:
        assert bo.priority(i) == 2
        name = bo.pomdp.states[i]
        ename = bo.pomdp.obs_map[name]
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


def act_state(bo, s, ename):
    """The id of model state ``s``'s action-selection state in element
    ``ename``: its position in the element's belief, from the element's
    first state id."""
    belief = bo.keys[ename][0]
    return (bo.ranges[bo.obs_index[ename]].start
            + belief.index(bo.state_names.index(s)))


def block_row(bo, i, o, a):
    """State ``i``'s stored successors under action ``a``, read from the
    one block of (element ``o``, ``a``), which has a row per belief state."""
    ids = bo.ranges[bo.obs_index[o]]
    block = bo.rows[(o, a)]
    assert len(block) == len(ids) == len(bo.keys[o][0])
    return block[i - ids.start]


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
            assert bo.priority(act_state(bo, s, ename)) == 2
        certified.update(
            act_state(bo, s, ename) for s in elem.belief
            if s in elem.brec and elem.srec_map[s] == good
            and bo.priority(act_state(bo, s, ename)) == 2)
    assert all(bo.moves[q] for q in bo.memsel.values())
    assert bo.certified_recurrent() == certified
    observed = {i: o for o, ids in zip(bo.observations, bo.ranges) for i in ids}
    followed = 0
    for i in certified:
        for a in bo.available[observed[i]]:
            if (observed[i], a) not in bo.rows:
                continue
            for m in block_row(bo, i, observed[i], a):
                offered = bo.moves[observed[m]]
                t = bo.state_names[bo.origin[m]]
                assert {act_state(bo, t, e) for e in offered} <= certified
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
    """An (element, action) has memory-selection branches and one block of
    stored rows, a row per belief state, exactly when the reference
    predicate allows it; otherwise it is recorded disallowed, once, as the
    element's slot among the sink's ``pred``, has no block, and its rows
    read as the sink row.  No other observation has a block."""
    counts = Counter()
    rewrites = [*seeded_cobuchi_rewrites(7004, 150), reduced_ex1_rewrite]
    for pomdp, prio, bo in rewrites:
        branched = {(e, a) for e, a, _ in bo.memsel}
        blocks = set()
        g = bo.graph
        gid = {o: c for c, o in enumerate(g.observations)}
        dead = set(g.pred[beliefobs.DEAD])
        for ename, elem in bo.elements.items():
            j = bo.obs_index[ename]
            for a in bo.available[ename]:
                allowed = reference_allowed(elem, a, pomdp, prio)
                assert ((ename, a) in branched) == allowed
                slot, = (k for k in g.slots[gid[ename]] if g.acts[k] == a)
                assert (slot in dead) == (not allowed)
                assert ((ename, a) in bo.rows) == allowed
                if allowed:
                    blocks.add((ename, a))
                    assert len(bo.rows[(ename, a)]) == len(elem.belief)
                for i in bo.ranges[j]:
                    assert (bo.successors(i, j, a) == (beliefobs.DEAD,)) == \
                        (not allowed)
                counts[allowed] += 1
        assert set(bo.rows) == blocks
    assert counts[True] > 4000 and counts[False] > 4000


def assert_blocks_match_the_model(pomdp, bo):
    """Each block from its definition: row p of the block of (element e,
    action a) lists, in ``index_supports`` row order, one entry for each
    successor t of belief state p, the state of t's branch
    ``memsel[(e, a, obs(t))]`` at t's position in that branch's belief,
    the belief update of e's belief.  Returns the number of blocks and of
    their rows, which the old layout stored one per (state, action)."""
    obs_of, rows = pomdp.index_supports
    names, index = pomdp.states, pomdp.state_index
    per_state = 0
    for e, (belief, _, _) in bo.keys.items():
        j = bo.obs_index[e]
        for a in bo.available[e]:
            if (e, a) not in bo.rows:
                continue
            per_state += len(bo.ranges[j])
            block = bo.rows[(e, a)]
            assert len(block) == len(belief)
            for s, row in zip(belief, block):
                want = []
                for t in rows[s][pomdp.action_index[a]]:
                    o = pomdp.observations[obs_of[t]]
                    branch = sorted(map(index.__getitem__, belief_update(
                        pomdp, [names[b] for b in belief], a, o)))
                    ids = bo.ranges[bo.obs_index[bo.memsel[(e, a, o)]]]
                    assert list(bo.origin[ids.start:ids.stop]) == branch
                    want.append(ids[branch.index(t)])
                assert row == tuple(want)
    assert sum(map(len, bo.rows.values())) == per_state
    return len(bo.rows), per_state


def test_blocks_are_the_branch_states_of_each_successor(reduced_ex1_rewrite):
    """Seeded rewrites in both modes and reduced ``ex1``: every stored row
    read off its block is the definition's, and the blocks hold exactly
    the rows the old layout stored one per (state, action)."""
    rng = random.Random(7006)
    blocks = Counter()
    for i in range(300):
        pomdp = random_pomdp(rng)
        if i % 2:
            pomdp = without_an_action(pomdp, rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            bo = rewrite(pomdp, {s: rng.choice(values) for s in pomdp.states})
            count, rows = assert_blocks_match_the_model(pomdp, bo)
            blocks[bo.mode] += count
            blocks["rows above blocks"] += rows - count
    assert min(blocks.values()) > 1500
    pomdp, _, bo = reduced_ex1_rewrite
    assert assert_blocks_match_the_model(pomdp, bo) == (1926, 18734)


def test_the_safety_stage_keeps_the_initial_observation(reduced_ex1_rewrite):
    """The beliefobs docstring's claim: the safe part of a co-Buchi rewrite
    holds its initial observation and every element without a committed
    belief state."""
    checked = 0
    for _, _, bo in [*seeded_cobuchi_rewrites(7005, 300), reduced_ex1_rewrite]:
        y, _, _ = run_core(_safe_obs, bo.graph,
                           set(bo.observations) - {bo.sink_obs})
        assert bo.init_obs in y
        for ename, elem in bo.elements.items():
            if not elem.belief & elem.brec:
                assert ename in y
                checked += 1
    assert checked > 1000


def test_the_safety_stage_decides_nothing(reduced_ex1_rewrite):
    """The ``solve_almost_cobuchi_fm`` docstring's claim: run from every
    observation but the sink, the reach stage keeps exactly the set it
    keeps from the safety stage's."""
    for _, _, bo in [*seeded_cobuchi_rewrites(5, 400), reduced_ex1_rewrite]:
        graph, wpr = bo.graph, bo.certified_recurrent()
        every = bytearray(j != beliefobs.DEAD
                          for j in range(len(graph.observations)))
        safe, _, _ = _safe_obs(graph, every)
        assert _buchi_obs(graph, every, wpr)[0] == _buchi_obs(graph, safe, wpr)[0]


def test_rewrite_objective_matches_priorities(ex1_rewrite):
    _, _, bo = ex1_rewrite
    assert bo.priority(bo.pomdp.state_index["dead"]) == 1


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


def test_a_branch_past_the_budget_names_its_move_count():
    """The branch of ``SPLIT_MODEL`` has 4 element moves; a 3-state budget
    refuses it before building them, with this message."""
    pomdp, objective = parse_model(SPLIT_MODEL)
    base, parity = objective_as_parity(pomdp, objective)
    with pytest.raises(ResourceLimitError) as raised:
        almost_cobuchi_red(base, parity.priority_map, budget=3)
    assert str(raised.value) == SPLIT_BUDGET_ERROR


def test_the_state_budget_holds_exactly_at_its_boundary(reduced_ex1_rewrite):
    """A budget of exactly the states a rewrite constructs, memory-selection
    branches that share their class's graph observation included, builds
    it; one state less raises, naming that count.  Seeded models in both
    modes, re-rooted in Buchi mode, and reduced ``ex1``."""
    rng = random.Random(7010)
    cases = []
    for _ in range(40):
        pomdp = random_pomdp(rng)
        cases.append((almost_cobuchi_red, pomdp, {
            s: rng.choice((1, 2)) for s in pomdp.states}, {}))
        cases.append((positive_buchi_red, pomdp, {
            s: rng.choice((0, 1)) for s in pomdp.states},
            {"root": rng.choice(pomdp.states)}))
    pomdp, prio, bo = reduced_ex1_rewrite
    cases.append((almost_cobuchi_red, pomdp, prio, {}))
    shared = 0
    for rewrite, pomdp, prio, root in cases:
        built = len(rewrite(pomdp, prio, **root).origin)
        bo = rewrite(pomdp, prio, budget=built, **root)
        assert len(bo.origin) == built
        shared += len(bo.observations) - len(bo.graph.observations)
        with pytest.raises(ResourceLimitError,
                           match=rf"\({built} states constructed\)$"):
            rewrite(pomdp, prio, budget=built - 1, **root)
    assert shared > 3000


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
    names = played.states
    assert len(bo.origin) == len(names)
    for j, o in enumerate(played.observations):
        ids = bo.ranges[j]
        assert tuple(names[i] for i in ids) == played.states_with_obs(o)
        assert bo.available[o] == played.available_at(o)
        for i in ids:
            for a in bo.available[o]:
                assert tuple(names[t] for t in bo.successors(i, j, a)) == \
                    played.supp(names[i], a)


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


def pinned_rewrite_cases():
    """(case, rewrite, model, priorities): ``ex1`` and ``ex2`` under their
    co-Buchi objectives and the Buchi objective on the same targets, and
    six seeded random models under both rewrites."""
    for name in ("ex1", "ex2"):
        pomdp, objective = load_fixture(name)
        targets = objective.targets
        yield (name, almost_cobuchi_red, pomdp,
               {s: 2 if s in targets else 1 for s in pomdp.states})
        yield (name, positive_buchi_red, pomdp,
               {s: 0 if s in targets else 1 for s in pomdp.states})
    rng = random.Random(8013)
    for i in range(6):
        model = random_pomdp(rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            yield (f"random{i}", rewrite, model,
                   {s: rng.choice(values) for s in model.states})


def rewrite_digests():
    """[case, rewrite, sha256 of the serialized playable rewrite, number
    and sha256 of the sorted names of its certified-recurrent states, one
    a line] per pinned case.  Certified states given as ids are named by
    ``bo.pomdp.states``."""
    out = []
    for case, rewrite, model, prio in pinned_rewrite_cases():
        bo = rewrite(model, prio)
        names = bo.pomdp.states
        certified = sorted(s if isinstance(s, str) else names[s]
                           for s in bo.certified_recurrent())
        out.append([case, rewrite.__name__,
                    sha256(serialize_model(bo.pomdp)),
                    len(certified), sha256("\n".join(certified))])
    return out


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Recorded by ``rewrite_digests``.
PINNED_REWRITES = [
    ["ex1", "almost_cobuchi_red",
     "e3fbf1121a370963838cf9ab20484c8d44c6744953c8e5031cb84bc5c483f11c",
     32, "7b52d38e0896db5c722228e759724d4bfb8c3da3cee4c6d8cc1934f889a5849e"],
    ["ex1", "positive_buchi_red",
     "10c6a5b3c530faa3587bda6c361e73c62fa1eb8bf73b53db97292d306e5ee0ea",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["ex2", "almost_cobuchi_red",
     "170889d9103c739998e6228c0a2eaef031c1830d5dbcedc736a84a05f3bcfdf5",
     384, "176341edf38971835e76f798ed6062acf4c2fd4551b454508bb12719da553749"],
    ["ex2", "positive_buchi_red",
     "fe9d2337148e7c844a28d00770af36ae81bf141275ba89d3fe191234359c54c3",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["random0", "almost_cobuchi_red",
     "704f831b45323dbcfb280531f0ef77acf4146cad4e610e15a22ff950dfe4ce7f",
     6, "18e1d86243b51600acfc86ee18c88695857e49279033cf0b3a5c5cb118cd1797"],
    ["random0", "positive_buchi_red",
     "96b00745958ba46f09b32b37da3fbe0b2417e9edd54f4574f2d3cbc6c1e4591e",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["random1", "almost_cobuchi_red",
     "fd9b8ce06357eccd18b8a0443b6681faa6de93810874ad32713e6878d5260369",
     11, "f001f97caf5ebec17c53dda16e80ff3e157de1d29e3079c2617ee105ecad36df"],
    ["random1", "positive_buchi_red",
     "6222bc9fa9374a71d261457ae3605e0db51ecbda8d0f977bac080e02d6e91d52",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["random2", "almost_cobuchi_red",
     "21e78a649de26bda9c0c2c0a6cd4879021da650e2651a098ecec3c49ddf49c9b",
     13, "eeae1d9233370887990ae50fa8d9ad92f76ea1214bc04d06f815594d10577f3f"],
    ["random2", "positive_buchi_red",
     "d436f1f39b87f2d23048e3352aa10ee542c89b2ae010597f7c0d3239d3e1ee37",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["random3", "almost_cobuchi_red",
     "3467c975e934a5d2075c4d358aa47b3df34e29d60dd2f07d7ac49ee8becc0f24",
     5, "2d953022543e6bc77a578f679c80be4a75e83e3140ebddf0bdcf0c94c488212c"],
    ["random3", "positive_buchi_red",
     "3fd3f02505eb42fcbb1d33f247c0c568ce1741327ec50a1912d76361b6e2aa03",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["random4", "almost_cobuchi_red",
     "24a14c51be15e9e21f1c1dd173fbc9a9c1031f0e3d2f1b9e306f483bdea3ae2d",
     11, "f001f97caf5ebec17c53dda16e80ff3e157de1d29e3079c2617ee105ecad36df"],
    ["random4", "positive_buchi_red",
     "ba985563851626ac5f087d6b177cfd39f9e06972962a32f74680976bacfd5399",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["random5", "almost_cobuchi_red",
     "34136ff8fdbf87755c53368448dceb3e2d701b39457290d8abd8679c8449e523",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    ["random5", "positive_buchi_red",
     "02dadf8c3163b0c33dde8464624fc32af38a2983e6aca913d0fab9316fb2305c",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
]


def test_playable_rewrites_match_the_recorded_bytes():
    """The playable model of each pinned rewrite, serialized, and its
    certified-recurrent states, in-process and under two string-hash
    seeds."""
    assert rewrite_digests() == PINNED_REWRITES
    here = Path(__file__).resolve().parent
    src = str(Path(beliefobs.__file__).resolve().parent.parent)
    script = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
              "import test_beliefobs; "
              "print(json.dumps(test_beliefobs.rewrite_digests()))")
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", script, str(here), src],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == PINNED_REWRITES, seed


def test_elements_are_interned(ex1, monkeypatch):
    """The construction builds no element; reading ``elements`` builds
    each distinct element once, equal to a fresh build from its key.  No
    block is stored for a memory-selection observation and an offered
    move, nor for any observation but an element."""
    make, element = MemoryElement.make, beliefobs.BeliefObsPomdp.element
    made = []

    def counting(bo, name):
        made.append(name)
        return element(bo, name)

    monkeypatch.setattr(beliefobs.BeliefObsPomdp, "element", counting)
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
            assert not any((qname, e) in bo.rows for e in offered)
        assert all(o in bo.keys for o, _ in bo.rows)


def test_shared_branch_moves_are_the_enumerated_ones(ex1, monkeypatch):
    """Every memory-selection observation offers, in order, exactly the
    moves a fresh enumeration of its branch gives, though the construction
    enumerates each branch signature only once."""
    explore_or_commit = beliefobs._explore_or_commit
    enumerated = []

    def counting(*args):
        enumerated.append(args[3])
        return explore_or_commit(*args)

    monkeypatch.setattr(beliefobs, "_explore_or_commit", counting)
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
            new_belief = tuple(sorted(map(
                index.__getitem__, belief_update(model, elem.belief, a, o))))
            moves = explore_or_commit(by_index, *beliefobs._element_moves(
                rows, by_index, mode, model.action_index[a],
                tuple(elem.srec_map[s] for s in names),
                frozenset(map(index.__getitem__, elem.belief & elem.brec))),
                new_belief, beliefobs.DEFAULT_STATE_BUDGET)
            fresh = tuple(name_of[MemoryElement.make(
                              [names[i] for i in belief],
                              [names[i] for i in brec],
                              dict(zip(names, tables)))]
                          for belief, brec, tables in moves)
            assert bo.moves[q] == fresh
            assert bo.available[q] == frozenset(fresh)
