"""Fixpoint operators and the solve pipelines, cross-checked independently."""

import functools
import gc
import inspect
import random
import types
from collections import Counter
from copy import copy as shallow_copy
from dataclasses import replace
from fractions import Fraction

import pytest

from pomparity import (ContractError, Objective, Pomdp, ResourceLimitError,
                       StructuralError, UnsupportedConversionError, WinningMode, allow,
                       almost_buchi, almost_cobuchi_red,
                       almost_parity_to_cobuchi, almost_reach,
                       almost_safe, apre, make_absorbing, obs_cover,
                       objective_as_parity, oracle_decide, positive_buchi_red,
                       pre, solve_parity_fm, solve_positive_buchi_fm,
                       solve_almost_cobuchi_fm, uniform, validate)
from pomparity import beliefobs, solve
from pomparity.beliefobs import BeliefObsPomdp, obs_graph
from pomparity.cli import cli_main
from pomparity.modelio import fixture_text
from pomparity.solve import _buchi_obs, _safe_obs
from pomparity.strategy import MemoryElement
from conftest import (all_memoryless_supports, chain_wins, gamble_pomdp,
                      observation_stationary, random_belief_obs_pomdp,
                      random_mdp, random_parity, random_pomdp, run_core)

ALMOST = WinningMode.ALMOST_SURE
POSITIVE = WinningMode.POSITIVE


def tiny_mdp() -> Pomdp:
    """g keeps itself or returns to c; c chooses g or the trap b."""
    one = Fraction(1)
    return Pomdp(
        states=("g", "c", "b"), actions=("a", "b"),
        observations=("o_g", "o_c", "o_b"),
        obs_map={"g": "o_g", "c": "o_c", "b": "o_b"},
        transitions={
            ("g", "a"): {"g": one}, ("g", "b"): {"c": one},
            ("c", "a"): {"g": one}, ("c", "b"): {"b": one},
            ("b", "a"): {"b": one}, ("b", "b"): {"b": one},
        },
        initial_state="c")


# -- operators --

def test_allow_keeps_only_set_preserving_actions():
    pomdp = tiny_mdp()
    assert allow("o_c", {"o_c", "o_g"}, pomdp) == frozenset({"a"})
    assert allow("o_g", {"o_c", "o_g"}, pomdp) == frozenset({"a", "b"})
    assert allow("o_g", {"o_g"}, pomdp) == frozenset({"a"})
    assert allow("o_b", {"o_b"}, pomdp) == frozenset({"a", "b"})


def test_pre_drops_action_less_observations():
    pomdp = tiny_mdp()
    assert pre({"o_g", "o_c"}, pomdp) == frozenset({"o_g", "o_c"})
    assert pre({"o_c"}, pomdp) == frozenset()


def test_obs_cover_requires_the_whole_class():
    pomdp = tiny_mdp()
    assert obs_cover({"g", "c"}, pomdp) == frozenset({"o_g", "o_c"})
    assert obs_cover({"g", "c", "b"}, pomdp) == frozenset(pomdp.observations)
    assert obs_cover(set(), pomdp) == frozenset()


def test_apre_attracts_with_positive_probability():
    pomdp = tiny_mdp()
    assert apre({"o_g", "o_c"}, {"g"}, pomdp) == frozenset({"g", "c"})
    assert apre({"o_g"}, {"g"}, pomdp) == frozenset({"g"})


def test_apre_rejects_targets_outside_the_domain():
    pomdp = tiny_mdp()
    with pytest.raises(ContractError) as err:
        apre({"o_g"}, {"c"}, pomdp)
    assert "c" in str(err.value)


# -- fixpoints on the hand model --

def test_almost_safe_on_the_tiny_model():
    pomdp = tiny_mdp()
    y, sigma = almost_safe(pomdp, {"g", "c"})
    assert y == frozenset({"o_g", "o_c"})
    assert chain_wins(pomdp, Objective.safe({"g", "c"}), ALMOST, sigma)
    empty, nothing = almost_safe(pomdp, {"c"})
    assert empty == frozenset() and nothing is None


def test_almost_buchi_on_the_tiny_model():
    pomdp = tiny_mdp()
    stats = {}
    z, sigma = almost_buchi(pomdp, {"g"}, stats)
    assert z == frozenset({"o_g", "o_c"})
    assert chain_wins(pomdp, Objective.buchi({"g"}), ALMOST, sigma)
    assert stats["buchi_outer_iterations"] >= 2


def test_almost_reach_on_the_tiny_model():
    pomdp = tiny_mdp()
    z, sigma = almost_reach(pomdp, {"g"})
    assert z == frozenset({"o_g", "o_c"})
    # the companion strategy lives on the absorbed model; re-check the
    # verdict on the original model through the reach conversion
    assert chain_wins(pomdp, Objective.reach({"g"}), ALMOST, sigma)


def test_the_fixpoint_wrappers_refuse_states_the_model_lacks(ex1):
    """A misspelt target is an error, not a losing "no"."""
    pomdp, _ = ex1
    for fixpoint in (almost_safe, almost_buchi, almost_reach):
        with pytest.raises(StructuralError, match="unknown states: nope$"):
            fixpoint(pomdp, {"X", "nope"})


def test_no_wrapper_or_pipeline_calls_the_name_level_operators(
        ex1, ex2, monkeypatch):
    """``allow``, ``pre``, ``apre`` and ``obs_cover`` are the tests'
    reference: with all four raising, the fixpoint wrappers and both
    pipelines return the same sets, names and tables as without, on the
    fixtures and on seeded models."""
    rng = random.Random(8005)
    cases = [objective_as_parity(*ex1), objective_as_parity(*ex2)]
    for _ in range(20):
        pomdp = random_pomdp(rng)
        cases.append((pomdp, random_parity(rng, pomdp, top=3)))

    def run_all():
        draw, out = random.Random(8006), []
        for pomdp, objective in cases:
            part = {s for s in pomdp.states if draw.random() < 0.6}
            out += [fixpoint(pomdp, part)
                    for fixpoint in (almost_safe, almost_buchi, almost_reach)]
            out += [solve_parity_fm(pomdp, objective, mode)
                    for mode in (ALMOST, POSITIVE)]
        return out

    expected = run_all()

    def refuse(*args):
        raise AssertionError("a name-level operator was called")

    for name in ("allow", "pre", "apre", "obs_cover"):
        monkeypatch.setattr(solve, name, refuse)
    assert run_all() == expected


# -- fixpoints against memoryless-support enumeration --

def from_state_wins(pomdp, objective, sigma, s):
    return chain_wins(replace(pomdp, initial_state=s), objective, ALMOST,
                      replace(sigma, initial_memory=f"w_{pomdp.obs_map[s]}"))


def winning_obs_by_enumeration(pomdp, objective):
    """Observations from which some memoryless support table wins surely."""
    out = set()
    for supports in all_memoryless_supports(pomdp):
        sigma = observation_stationary(pomdp, supports)
        for o in pomdp.observations:
            if o in out:
                continue
            if all(from_state_wins(pomdp, objective, sigma, s)
                   for s in pomdp.states_with_obs(o)):
                out.add(o)
    return frozenset(out)


def test_safety_fixpoint_matches_enumeration_on_belief_obs_models():
    rng = random.Random(8000)
    for _ in range(20):
        pomdp = random_belief_obs_pomdp(rng)
        safe = {s for s in pomdp.states if rng.random() < 0.7}
        y, sigma = almost_safe(pomdp, safe)
        assert y == winning_obs_by_enumeration(pomdp, Objective.safe(safe))
        if y and pomdp.obs_map[pomdp.initial_state] in y:
            assert chain_wins(pomdp, Objective.safe(safe), ALMOST, sigma)


def test_buchi_fixpoint_matches_enumeration_on_belief_obs_models():
    rng = random.Random(8001)
    for _ in range(20):
        pomdp = random_belief_obs_pomdp(rng)
        targets = {s for s in pomdp.states if rng.random() < 0.4}
        if not targets:
            targets = {pomdp.states[-1]}
        z, sigma = almost_buchi(pomdp, targets)
        assert z == winning_obs_by_enumeration(pomdp, Objective.buchi(targets))
        if z and pomdp.obs_map[pomdp.initial_state] in z:
            assert chain_wins(pomdp, Objective.buchi(targets), ALMOST, sigma)


# -- fixpoint cores against a reference iteration --

def with_cached_supports(pomdp):
    """A shallow copy of ``pomdp`` that derives each (state, action)
    support once, however often the name-level operators read it."""
    cached = shallow_copy(pomdp)
    cached.supp = functools.cache(pomdp.supp)
    return cached


def reference_safe(pomdp, safe_states):
    """The safety fixpoint by its definition: nu Y. ObsCover(F) & Pre(Y)."""
    pomdp = with_cached_supports(pomdp)
    y = obs_cover(safe_states, pomdp)
    rounds = 0
    removed = {}
    while True:
        rounds += 1
        y2 = pre(y, pomdp)
        removed.update(dict.fromkeys(y - y2, rounds))
        if y2 == y:
            break
        y = y2
    return y, {o: allow(o, y, pomdp) for o in y}, rounds, removed


def reference_buchi(pomdp, targets):
    """The Buchi fixpoint by its definition, X grown one Apre layer a step."""
    pomdp = with_cached_supports(pomdp)
    z = frozenset(pomdp.observations)
    outer = inner = 0
    removed = {}
    while True:
        outer += 1
        pre_z = pre(z, pomdp)
        x = {s for s in targets if pomdp.obs_map[s] in pre_z}
        grew = bool(x)
        while grew:
            inner += 1
            layer = apre(z, x, pomdp) - x
            x |= layer
            grew = bool(layer)
        z2 = obs_cover(x, pomdp)
        removed.update(dict.fromkeys(z - z2, outer))
        if z2 == z:
            break
        z = z2
    return z, {o: allow(o, z, pomdp) for o in z}, outer, inner, removed


def supports_by_id(model):
    """The states of a ``Pomdp`` or a rewrite by id: the ids of each
    observation, the observation of each id, and ``succ(i, a)``, the
    successor ids of state i under an action available at it.  A model's
    ids are its state indices, read through its names; a rewrite's are
    read from its records."""
    if isinstance(model, Pomdp):
        index = model.state_index
        members = {o: [index[s] for s in model.states_with_obs(o)]
                   for o in model.observations}

        def succ(i, a):
            return [index[t] for t in model.supp(model.states[i], a)]
    else:
        members = dict(zip(model.observations, model.ranges))

        def succ(i, a):
            return model.successors(i, model.obs_index[observed[i]], a)
    observed = {i: o for o, ids in members.items() for i in ids}
    return members, observed, succ


def restrict_to(model, plays):
    """The sub-POMDP on the observations of a play table, actions cut to
    the table's, uniform over the model's supports (a ``Pomdp`` or a
    rewrite); its states are named by their ids."""
    members, observed, succ = supports_by_id(model)
    keep = sorted(i for o in plays for i in members[o])
    return Pomdp(states=tuple(map(str, keep)), actions=model.actions,
                 observations=tuple(plays),
                 obs_map={str(i): observed[i] for i in keep},
                 transitions={(str(i), a): uniform(map(str, succ(i, a)))
                              for i in keep for a in plays[observed[i]]},
                 initial_state=str(keep[0]), available=dict(plays))


def assert_kept_moves_stay_kept(model, plays):
    """The attractor invariant the witness builder relies on: every kept
    observation keeps a move, and its kept moves lead to kept
    observations."""
    members, observed, succ = supports_by_id(model)
    for o, acts in plays.items():
        assert acts, o
        assert all(observed[t] in plays for a in acts
                   for i in members[o] for t in succ(i, a))


def assert_buchi_inside_matches(model, plays, targets, closed):
    """Buchi on the targets (state ids) inside a safe part, on the model's
    graph from the safe part, against the reference on the model
    restricted to its kept actions: the live slots at the start are those
    actions.  For closed targets, as in the co-Buchi pipeline's reach
    stage, the copy has them absorbing: Buchi is reaching them.  The
    witness table the pipeline assembles keeps the attractor invariant."""
    members, _, _ = supports_by_id(model)
    inside = frozenset(i for o in plays for i in members[o] if i in targets)
    stats = {}
    w, kept, ranks = run_on(_buchi_obs, model, plays, inside, stats)
    copy = restrict_to(model, plays)
    named = frozenset(map(str, inside))
    assert (w, kept, stats["buchi_outer_iterations"],
            stats["buchi_inner_steps"], ranks) == \
        reference_buchi(make_absorbing(copy, named) if closed else copy,
                        named)
    assert_kept_moves_stay_kept(model, kept)
    assert_kept_moves_stay_kept(model, {o: kept.get(o, acts)
                                        for o, acts in plays.items()})


def assert_reach_stage_matches(bo):
    """The co-Buchi pipeline's reach stage, Buchi on the certified states
    inside the safe part read from the rewrite's records, against reaching
    them; returns whether the safe part is non-empty."""
    y, plays, _ = run_on(_safe_obs, bo, set(bo.observations) - {bo.sink_obs})
    if y:
        assert_buchi_inside_matches(bo, plays, bo.certified_recurrent(),
                                    closed=True)
    return bool(y)


def test_fixpoint_cores_match_the_reference_iteration(ex1):
    """Same sets, kept actions and round counts as the definitions, and
    each observation's removal rank equal to the round that removes it,
    on random models and both rewrites, and for the co-Buchi pipeline's
    reach stage, which makes no restricted or absorbing copy, on random
    rewrites and on reduced ``ex1``.  Every kept observation keeps a move,
    and its kept moves lead to kept observations."""
    rng = random.Random(8004)
    reach_stages = 0
    for _ in range(200):
        base = random_pomdp(rng)
        cob = almost_cobuchi_red(base, {s: rng.choice((1, 2))
                                        for s in base.states})
        buc = positive_buchi_red(base, {s: rng.choice((0, 1))
                                        for s in base.states})
        for pomdp in (base, cob.pomdp, buc.pomdp):
            graph = obs_graph(pomdp)
            safe = {s for s in pomdp.states if rng.random() < 0.8}
            stats = {}
            y, plays, ranks = run_core(_safe_obs, graph,
                                       obs_cover(safe, pomdp), stats)
            assert (y, plays, stats["safety_iterations"], ranks) == \
                reference_safe(pomdp, safe)
            assert_kept_moves_stay_kept(pomdp, plays)
            targets = {s for s in pomdp.states if rng.random() < 0.3}
            ids = frozenset(map(pomdp.state_index.__getitem__, targets))
            stats = {}
            z, kept, ranks = run_core(_buchi_obs, graph, pomdp.observations,
                                      ids, stats)
            assert (z, kept, stats["buchi_outer_iterations"],
                    stats["buchi_inner_steps"], ranks) == \
                reference_buchi(pomdp, targets)
            assert_kept_moves_stay_kept(pomdp, kept)
            if y:
                assert_buchi_inside_matches(pomdp, plays, ids, closed=False)
        reach_stages += assert_reach_stage_matches(cob)
    assert reach_stages >= 100
    red = almost_parity_to_cobuchi(*objective_as_parity(*ex1))
    prio = {s: 2 if s in red.objective.targets else 1 for s in red.pomdp.states}
    assert assert_reach_stage_matches(almost_cobuchi_red(red.pomdp, prio))


def stood_for(bo):
    """Graph observation name -> the names of the rewrite's observations
    it stands for (``bo.stands_for``), and graph state id -> the state ids
    it stands for, position by position."""
    g = bo.graph
    names = {g.observations[c]: [bo.observations[q] for q in qs]
             for c, qs in enumerate(bo.stands_for)}
    ids = {i: [bo.ranges[q][p] for q in qs]
           for c, qs in enumerate(bo.stands_for)
           for p, i in enumerate(g.members[c])}
    return names, ids


def unfold(bo):
    """The class->branch expansion of a rewrite's quotient graph: the
    graph over the rewrite's own observations that it stands for.  Each
    member branch of a class gets a copy of the class's move slots, and
    as its ``pred`` and reverse entries the one element slot of its
    branch; each element's ``pred`` holds every copy of its move slots;
    the sink's one slot becomes one slot per action of the sink."""
    g, n = bo.graph, len(bo.observations)
    slots, acts, owner, moving = [range(0)] * n, [], [], bytearray(n)
    pred, into = [[] for _ in range(n)], [[] for _ in range(n)]
    copies = [[] for _ in g.acts]  # graph slot -> its unfolded slots
    for c, qs in enumerate(bo.stands_for):
        ks = g.slots[c] if c != beliefobs.DEAD else \
            [g.slots[c][0]] * len(bo.actions)
        for q in qs:
            moving[q] = g.moving[c]
            slots[q] = range(len(acts), len(acts) + len(ks))
            for k, u in zip(ks, slots[q]):
                acts.append(g.acts[k] if c != beliefobs.DEAD
                            else bo.actions[u - slots[q].start])
                owner.append(q)
                copies[k].append(u)
    for c, qs in enumerate(bo.stands_for):
        if g.moving[c] and c != beliefobs.START:
            for q, k, (k2, template) in zip(qs, g.pred[c], g.into[c]):
                assert k2 == k
                (u,) = copies[k]
                pred[q], into[q] = [u], [(u, template)]
        else:
            (q,) = qs
            pred[q] = [u for k in g.pred[c] for u in copies[k]]
            into[q] = [(u, template) for k, template in g.into[c]
                       for u in copies[k]]
    return beliefobs.ObsGraph(bo.observations, slots, acts, owner, pred,
                              bo.ranges, moving, into)


def unfold_run(bo, run):
    """A fixpoint run on a rewrite's quotient graph, as ``run_core`` reads
    it back, read per branch: each class's set membership, kept actions
    and rank are each of its members', and the sink's one kept slot is
    every action of the sink."""
    names, _ = stood_for(bo)
    inside, plays, ranks = run
    sink = bo.available[bo.sink_obs]
    return (frozenset(q for o in inside for q in names[o]),
            {q: sink if o == bo.sink_obs else acts
             for o, acts in plays.items() for q in names[o]},
            {q: rank for o, rank in ranks.items() for q in names[o]})


def run_on(core, model, start, *args):
    """``run_core`` on the graph of a ``Pomdp``, or on a rewrite's quotient
    graph read back per branch; a rewrite's start set must hold all
    branches of a class or none."""
    if isinstance(model, Pomdp):
        return run_core(core, obs_graph(model), start, *args)
    names, _ = stood_for(model)
    assert all(len({q in start for q in qs}) == 1 for qs in names.values())
    return unfold_run(model, run_core(core, model.graph, start, *args))


def assert_classes_group_their_branches(bo):
    """Every branch lies in one class; every member of a class has the
    same ``moves`` and the same ``origin`` run, the class's; and a
    class's ``pred`` is exactly its members' element slots.  Any other
    graph observation stands for itself."""
    g = bo.graph
    slot_of = {(g.observations[g.owner[k]], g.acts[k]): k
               for k in range(len(g.acts)) if not g.moving[g.owner[k]]}
    branch_of = {q: (e, a) for (e, a, _), q in bo.memsel.items()}
    grouped = []
    for c, qs in enumerate(bo.stands_for):
        names = [bo.observations[q] for q in qs]
        if not g.moving[c] or c == beliefobs.START:
            assert names == [g.observations[c]]
            assert bo.ranges[qs[0]] == g.members[c]
            continue
        grouped += names
        assert names[0] == g.observations[c]
        offered = tuple(g.acts[k] for k in g.slots[c])
        assert {bo.moves[q] for q in names} == {offered}
        assert {tuple(bo.origin[bo.ranges[q].start:bo.ranges[q].stop])
                for q in qs} == {tuple(bo.origin[i] for i in g.members[c])}
        assert list(g.pred[c]) == [slot_of[branch_of[q]] for q in names]
    assert sorted(grouped) == sorted(bo.memsel.values())


def graph_table(graph):
    """(observation, action) -> the observations the graph lets it reach."""
    names = graph.observations
    table = {(names[j], graph.acts[k]): set() for k, j in enumerate(graph.owner)}
    for j, slots in enumerate(graph.pred):
        assert len(set(slots)) == len(slots)
        for k in slots:
            table[(names[graph.owner[k]], graph.acts[k])].add(names[j])
    return table


def walked_table(pomdp):
    """The same table by a walk over every state's supports."""
    return {(o, a): {pomdp.obs_map[t] for s in pomdp.states_with_obs(o)
                     for t in pomdp.supp(s, a)}
            for o in pomdp.observations for a in pomdp.available_at(o)}


def back_table(graph):
    """State id -> the (observation, action, source state id) of each of
    its reverse entries, which list each at most once and, per
    observation, name exactly the slots of its ``pred`` that are not move
    slots."""
    names, members, owner = graph.observations, graph.members, graph.owner
    table = {}
    for j, entries in enumerate(graph.into):
        assert [k for k, _ in entries] == [
            k for k in graph.pred[j] if not graph.moving[owner[k]]]
        for q, i in enumerate(members[j]):
            found = [(k, p) for k, (reach, bounds) in entries
                     for p in reach[bounds[2 * q]:bounds[2 * q + 1]]]
            assert len(set(found)) == len(found)
            if found:
                table[i] = {(names[owner[k]], graph.acts[k], members[owner[k]][p])
                            for k, p in found}
    return table


def reversed_supports(graph, played):
    """The same table by reversing every state's supports in the playable
    model, under every slot of the graph but its move slots."""
    index = played.state_index
    table = {}
    for j, o in enumerate(graph.observations):
        if graph.moving[j]:
            continue
        for s in played.states_with_obs(o):
            for a in played.available_at(o):
                for t in played.supp(s, a):
                    table.setdefault(index[t], set()).add((o, a, index[s]))
    return table


def assert_implicit_rows_read_as_stored(bo, rng):
    """The observation graph and the fixpoint cores on the rewrite, whose
    memory-selection rows are implicit and whose branches are grouped
    into classes, against its playable model: the graph unfolded per
    branch, and the one compiled from the playable model, have the
    playable model's edges, and their reverse tables reverse its
    supports.  The cores run from random start sets and targets that
    hold all branches of a class or none."""
    played = bo.pomdp
    assert_classes_group_their_branches(bo)
    graphs = [unfold(bo), obs_graph(played)]
    assert graph_table(graphs[0]) == graph_table(graphs[1]) == \
        walked_table(played)
    assert back_table(graphs[0]) == reversed_supports(graphs[0], played)
    assert back_table(graphs[1]) == reversed_supports(graphs[1], played)
    names, ids = stood_for(bo)
    for _ in range(4):
        start = {q for o in bo.graph.observations if rng.random() < 0.9
                 for q in names[o]}
        safe = {played.states[j] for js in ids.values()
                if rng.random() < 0.9 for j in js
                if played.obs_map[played.states[j]] in start}
        targets = {j for i in ids if rng.random() < 0.3 for j in ids[i]}
        runs = []
        for model in (bo, played):
            stats = {}
            runs.append((run_on(_safe_obs, model, obs_cover(safe, played),
                                stats),
                         run_on(_buchi_obs, model, start, targets, stats),
                         stats))
        assert runs[0] == runs[1]


def test_move_table_reads_the_implicit_selection_rows(ex1):
    """The graph read from the rewrite's records fills the rows it skips
    walking exactly as the walk over the stored supports of the playable
    model would, and both fixpoint cores read the two graphs alike from
    random start sets."""
    rng = random.Random(8006)
    for _ in range(200):
        base = random_pomdp(rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            prio = {s: rng.choice(values) for s in base.states}
            assert_implicit_rows_read_as_stored(rewrite(base, prio), rng)
    base, parity = objective_as_parity(*ex1)
    assert_implicit_rows_read_as_stored(
        almost_cobuchi_red(base, parity.priority_map), rng)


def assert_pipeline_run_reads_as_stored(bo):
    """The Buchi core as a pipeline calls it, on the rewrite's graph, whose
    move slots it walks by position, against the graph of the playable
    model, whose rows it reverses: in co-Buchi mode the reach stage, from
    the safety stage's kept plays to the certified states; in Buchi mode
    the root run, from all observations to the priority-0 states.  Same
    set, kept actions, ranks, and outer and inner counts.  Returns the
    run."""
    graph, played = bo.graph, obs_graph(bo.pomdp)
    assert [j for j, moved in enumerate(unfold(bo).moving) if moved] == [
        j for j, o in enumerate(bo.observations)
        if o not in bo.keys and j != beliefobs.DEAD]
    assert not any(played.moving)
    if bo.mode == beliefobs.COBUCHI_MODE:
        start, _, _ = run_on(_safe_obs, bo,
                             set(bo.observations) - {bo.sink_obs})
        targets = bo.certified_recurrent()
    else:
        start = bo.observations
        targets = frozenset(i for i in range(len(bo.origin))
                            if bo.priority(i) == 0)
    runs = []
    for model in (bo, bo.pomdp):
        stats = {}
        runs.append((run_on(_buchi_obs, model, start, targets, stats), stats))
    assert runs[0] == runs[1]
    return runs[0]


def test_pipeline_buchi_runs_read_the_move_slots_as_stored(ex1):
    """The co-Buchi reach stage and the Buchi-mode root runs of seeded
    rewrites and of ``ex1``, walked on the rewrite's graph and reversed on
    its playable model's, agree; the draws include won and lost runs,
    runs that remove observations, and runs of several inner steps."""
    rng = random.Random(8010)
    seen = Counter()
    runs = []
    for _ in range(150):
        base = random_pomdp(rng)
        runs.append(assert_pipeline_run_reads_as_stored(almost_cobuchi_red(
            base, {s: rng.choice((1, 2)) for s in base.states})))
        prio = {s: rng.choice((0, 1)) for s in base.states}
        runs.append(assert_pipeline_run_reads_as_stored(positive_buchi_red(
            base, prio, root=rng.choice(base.states))))
    base, parity = objective_as_parity(*ex1)
    runs.append(assert_pipeline_run_reads_as_stored(
        almost_cobuchi_red(base, parity.priority_map)))
    for (z, _, ranks), stats in runs:
        seen["won"] += "o_start" in z
        seen["lost"] += "o_start" not in z
        seen["removed"] += bool(ranks)
        seen["inner steps"] += stats["buchi_inner_steps"] > 3
    assert min(seen.values()) >= 30, seen


def test_observation_graph_reads_the_construction_records(ex1):
    """On the full rewrite, the graph the construction wrote equals a walk
    over every state's supports, and its reverse table, over the slots
    that are not move slots, the reversed supports of the playable model.
    The draws cover disallowed actions (all-sink rows) and the initial and
    sink observations; ``ex1`` is checked too."""
    rng = random.Random(8007)
    seen = Counter()
    base, parity = objective_as_parity(*ex1)
    bo = almost_cobuchi_red(base, parity.priority_map)
    assert_classes_group_their_branches(bo)
    assert graph_table(unfold(bo)) == walked_table(bo.pomdp)
    assert back_table(unfold(bo)) == reversed_supports(unfold(bo), bo.pomdp)
    for _ in range(200):
        base = random_pomdp(rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            bo = rewrite(base, {s: rng.choice(values) for s in base.states})
            assert_classes_group_their_branches(bo)
            graph = unfold(bo)
            table = graph_table(graph)
            assert table == walked_table(bo.pomdp)
            assert back_table(graph) == reversed_supports(graph, bo.pomdp)
            for e in bo.initial_moves:
                assert table[(bo.init_obs, e)] == {e}
            assert all(table[(bo.sink_obs, a)] == {bo.sink_obs}
                       for a in bo.actions)
            branches = {(e, a) for e, a, _ in bo.memsel}
            seen["disallowed"] += sum(table[(e, a)] == {bo.sink_obs}
                                      for e in bo.elements
                                      for a in bo.available[e]
                                      if (e, a) not in branches)
    assert seen["disallowed"] >= 100, seen


# -- solve pipelines --

def test_solve_fixture_verdicts(ex1, ex2, ex2fix):
    for (pomdp, objective), almost, positive in (
            (ex1, True, True), (ex2, True, True), (ex2fix, False, True)):
        da = solve_parity_fm(pomdp, objective, ALMOST)
        dp = solve_parity_fm(pomdp, objective, POSITIVE)
        assert (da.winning, dp.winning) == (almost, positive)
        assert (da.verdict, dp.verdict) == (
            "yes" if almost else "no", "yes" if positive else "no")
        for d in (da, dp):
            if d.winning:
                assert chain_wins(pomdp, objective, d.mode, d.witness)
            else:
                assert d.witness is None
                assert "failed_stage" in d.diagnostics


def capture_rewrites(monkeypatch):
    """Record every rewrite the solve pipelines build; return the list."""
    built = []

    def capture(rewrite):
        def wrapped(*args, **kwargs):
            built.append(rewrite(*args, **kwargs))
            return built[-1]
        return wrapped

    for name in ("almost_cobuchi_red", "positive_buchi_red"):
        monkeypatch.setattr(solve, name, capture(getattr(solve, name)))
    return built


def held_strings(*roots):
    """Every string reachable from the roots through object references,
    not through modules or classes."""
    seen, stack, found = set(), list(roots), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            found.add(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_no_pipeline_builds_the_weighted_rewrite(ex1, ex2, monkeypatch):
    """The pipelines read the rewrite's integer records, never
    ``bo.pomdp``, and no ``A~``/``M~`` state name is built: ``bo.pomdp``
    is the only code that spells one, and nothing a solve keeps holds
    one.  On ``ex1``, ``ex2`` and ``ex1`` reduced to co-Buchi, in both
    modes."""
    def spelling(source):
        return [line for line in source.splitlines() if "~{" in line]

    assert [line for module in (beliefobs, solve)
            for line in spelling(inspect.getsource(module))] == \
        spelling(inspect.getsource(BeliefObsPomdp.pomdp.func))

    def refused(bo):
        raise AssertionError("the playable rewrite was built")

    monkeypatch.setattr(BeliefObsPomdp, "pomdp", property(refused))
    built = capture_rewrites(monkeypatch)
    red = almost_parity_to_cobuchi(*objective_as_parity(*ex1))
    for pomdp, objective in (ex1, ex2, (red.pomdp, red.objective)):
        for mode in (ALMOST, POSITIVE):
            before = len(built)
            decision = solve_parity_fm(pomdp, objective, mode)
            assert decision.winning
            assert len(built) > before
            assert not any(s.startswith(("A~", "M~"))
                           for s in held_strings(decision, *built[before:]))
    assert 57158 in {len(bo.origin) for bo in built}


def test_no_solve_reads_the_rewrite_rows_through_its_playable_form(
        ex1, monkeypatch):
    """The fixpoints, the witness and its annotation read the graph the
    construction wrote: with ``BeliefObsPomdp.successors`` and
    ``BeliefObsPomdp.pomdp`` refusing, every solve still runs, in both
    modes, on ``ex1`` reduced to co-Buchi and on seeded models."""
    def refused(*args):
        raise AssertionError("a solve read the rewrite's playable form")

    monkeypatch.setattr(BeliefObsPomdp, "successors", refused)
    monkeypatch.setattr(BeliefObsPomdp, "pomdp", property(refused))
    built = capture_rewrites(monkeypatch)
    red = almost_parity_to_cobuchi(*objective_as_parity(*ex1))
    cases = [(red.pomdp, red.objective)]
    rng = random.Random(2402)
    for _ in range(20):
        model = random_pomdp(rng)
        cases.append((model, random_parity(rng, model, top=3)))
    verdicts = Counter()
    for pomdp, objective in cases:
        for mode in (ALMOST, POSITIVE):
            verdicts[mode, solve_parity_fm(pomdp, objective, mode).winning] += 1
    assert min(verdicts.values()) >= 3, verdicts
    assert 57158 in {len(bo.origin) for bo in built}


def test_elements_are_built_straight_from_their_keys(ex1, monkeypatch):
    """``BeliefObsPomdp.element`` builds the element its interned key
    names, equal to ``MemoryElement.make`` on the key's names, without
    calling it: on seeded rewrites in both modes, and on every memory of
    the ``ex1`` witness."""
    make = MemoryElement.make
    monkeypatch.setattr(MemoryElement, "make", None)

    def assert_built_from_keys(bo, names):
        for name in names:
            belief, brec, tables = bo.keys[name]
            states = bo.state_names
            assert bo.element(name) == make(
                [states[i] for i in belief], [states[i] for i in brec],
                dict(zip(states, tables)))

    rng = random.Random(2403)
    checked = 0
    for _ in range(40):
        model = random_pomdp(rng)
        for rewrite, values in ((almost_cobuchi_red, (1, 2)),
                                (positive_buchi_red, (0, 1))):
            bo = rewrite(model, {s: rng.choice(values) for s in model.states})
            assert_built_from_keys(bo, bo.keys)
            checked += len(bo.keys)
    assert checked > 500
    built = capture_rewrites(monkeypatch)
    pomdp, objective = ex1
    d = solve_parity_fm(pomdp, objective, ALMOST)
    assert d.winning and "reduced_states" not in d.diagnostics
    bo, = built
    assert_built_from_keys(bo, d.witness.elements)
    assert {m: bo.element(m) for m in d.witness.elements} == \
        d.witness.elements


def test_solve_diagnostics_hold_the_fixpoint_sets(ex1, monkeypatch):
    """The diagnostics' observation sets are the fixpoints' by their
    definitions, on the rewrite the solve built: in almost-sure mode the
    safe part, and the observations inside it that reach the certified
    states surely; in positive mode the winning root's almost-sure Buchi
    set of the priority-0 states.  On ``ex1`` and seeded models."""
    built = capture_rewrites(monkeypatch)
    cases = [ex1]
    rng = random.Random(2404)
    for _ in range(20):
        model = random_pomdp(rng)
        cases.append((model, random_parity(rng, model, top=3)))
    seen = Counter()
    for pomdp, objective in cases:
        for mode in (ALMOST, POSITIVE):
            built.clear()
            d = solve_parity_fm(pomdp, objective, mode)
            diag, bo = d.diagnostics, built[-1]
            played = bo.pomdp
            if mode is ALMOST:
                safe, plays, _, _ = reference_safe(
                    played, set(played.states) - {"dead"})
                assert diag["safe_observations"] == safe
                members, _, _ = supports_by_id(bo)
                certified = bo.certified_recurrent()
                inside = frozenset(str(i) for o in plays for i in members[o]
                                   if i in certified)
                assert diag["winning_observations"] == (reference_buchi(
                    make_absorbing(restrict_to(bo, plays), inside), inside)[0]
                    if safe else frozenset())
            elif d.winning:
                targets = {played.states[i] for i in range(len(bo.origin))
                           if bo.priority(i) == 0}
                assert diag["winning_observations"] == \
                    reference_buchi(played, targets)[0]
            else:
                assert "winning_observations" not in diag
            seen[mode, d.winning] += 1
    assert min(seen.values()) >= 3, seen


def count_checks(monkeypatch):
    """Record the model of every chain ``solve`` builds and the name of
    every element ``BeliefObsPomdp.element`` builds; return both lists."""
    build, make = solve.build_product_chain, BeliefObsPomdp.element
    chains, made = [], []

    def building(pomdp, strategy):
        chains.append(pomdp)
        return build(pomdp, strategy)

    def making(bo, name):
        made.append(name)
        return make(bo, name)

    monkeypatch.setattr(solve, "build_product_chain", building)
    monkeypatch.setattr(BeliefObsPomdp, "element", making)
    return chains, made


def test_solves_annotate_only_the_witness_memories(ex1, monkeypatch):
    """A solve builds the ``MemoryElement`` of an element only for the
    element memories its witness keeps, once each: on ``ex1`` reduced to
    co-Buchi at most 285 of the rewrite's 3,256 elements.  The public
    pipelines check each "yes" with one chain."""
    chains, made = count_checks(monkeypatch)
    built = capture_rewrites(monkeypatch)
    red = almost_parity_to_cobuchi(*objective_as_parity(*ex1))
    d = solve_parity_fm(red.pomdp, red.objective, ALMOST)
    assert d.winning and len(built) == 1
    assert len(made) == len(d.witness.elements) <= 285
    assert len(built[0].keys) == 3256
    rng = random.Random(8011)
    wins = Counter()
    for _ in range(60):
        model = random_pomdp(rng)
        for pipeline, values in ((solve_almost_cobuchi_fm, (1, 2)),
                                 (solve_positive_buchi_fm, (0, 1))):
            made.clear()
            built.clear()
            chains.clear()
            d = pipeline(model, {s: rng.choice(values) for s in model.states})
            assert len(made) == (len(d.witness.elements) if d.winning else 0)
            assert len(chains) == d.winning
            assert all(c is model for c in chains)
            assert all("elements" not in bo.__dict__ for bo in built)
            wins[pipeline, d.winning] += 1
    assert min(wins.values()) >= 5, wins


def test_each_yes_is_chain_checked_once_on_the_input_model(ex1, monkeypatch):
    """A "yes" builds one chain, on the model the solve was given, and no
    other; a "no" builds none.  The direct route makes exactly the
    elements its witness carries; the reduced route (priorities 0..3, or
    {0,1} and {1,2} in the other mode) makes none and returns a witness
    without annotations."""
    chains, made = count_checks(monkeypatch)
    rng = random.Random(2201)
    cases = [objective_as_parity(*ex1)]
    for _ in range(20):
        model = random_pomdp(rng)
        cases.append((model, random_parity(rng, model, top=3)))
        for low in (0, 1):
            cases.append((model, Objective.parity(
                {s: rng.randint(low, low + 1) for s in model.states})))
    routes = Counter()
    for pomdp, objective in cases:
        for mode in (ALMOST, POSITIVE):
            chains.clear()
            made.clear()
            d = solve_parity_fm(pomdp, objective, mode)
            reduced = "reduced_states" in d.diagnostics
            routes[reduced, mode, d.winning] += 1
            if not d.winning:
                assert chains == [] and made == []
                continue
            assert len(chains) == 1 and chains[0] is pomdp
            assert len(made) == len(d.witness.elements)
            assert bool(made) is not reduced
    assert min(routes[reduced, mode, True] for reduced in (False, True)
               for mode in (ALMOST, POSITIVE)) >= 8, routes


def test_a_losing_witness_is_refused_on_every_route(tmp_path, capsys,
                                                   monkeypatch):
    """The one chain check is a gate: a witness whose initial memory plays
    nothing, so every play stops at once or after the prefix, is refused
    with ``ContractError`` on the direct and the reduced route in both
    modes, and ``pomparity solve`` exits 2 and writes no witness."""
    pomdp = tiny_mdp()
    wide = Objective.parity({"g": 0, "c": 2, "b": 1})
    cases = [(Objective.cobuchi({"g", "c"}), ALMOST, False),
             (wide, ALMOST, True),
             (Objective.buchi({"g"}), POSITIVE, False),
             (wide, POSITIVE, True)]
    for objective, mode, reduced in cases:
        d = solve_parity_fm(pomdp, objective, mode)
        assert d.winning and ("reduced_states" in d.diagnostics) is reduced
    extract = solve._witness_from_plays

    def idle_start(*args):
        table = extract(*args)
        return replace(table, action_support={
            m: acts for m, acts in table.action_support.items()
            if m != table.initial})

    monkeypatch.setattr(solve, "_witness_from_plays", idle_start)
    refused = "failed independent chain verification; refusing to answer yes"
    for objective, mode, _ in cases:
        with pytest.raises(ContractError, match=refused):
            solve_parity_fm(pomdp, objective, mode)
    with pytest.raises(ContractError, match=refused):
        solve_almost_cobuchi_fm(pomdp, {"g": 2, "c": 2, "b": 1})
    with pytest.raises(ContractError, match=refused):
        solve_positive_buchi_fm(pomdp, {"g": 0, "c": 1, "b": 1})
    model = tmp_path / "ex1.pomdp"
    model.write_text(fixture_text("ex1"), encoding="utf-8")
    for mode in ("almost", "positive"):
        assert cli_main(["solve", "--mode", mode, str(model)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and refused in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.pomdp"]


def test_solve_diagnostics_names(ex1):
    pomdp, objective = ex1
    da = solve_parity_fm(pomdp, objective, ALMOST)
    assert set(da.diagnostics) == {
        "states_constructed", "safety_iterations", "safe_observations",
        "buchi_outer_iterations", "buchi_inner_steps", "winning_observations"}
    dp = solve_parity_fm(pomdp, objective, POSITIVE)
    assert set(dp.diagnostics) == {
        "states_constructed", "roots_tried", "winning_root", "reduced_states",
        "buchi_outer_iterations", "buchi_inner_steps", "winning_observations"}


def test_solve_reach_and_safe_on_the_tiny_model():
    pomdp = tiny_mdp()
    for objective in (Objective.reach({"g"}), Objective.safe({"g", "c"}),
                      Objective.buchi({"g"}), Objective.cobuchi({"g", "c"})):
        for mode in (ALMOST, POSITIVE):
            d = solve_parity_fm(pomdp, objective, mode)
            assert d.winning
            assert chain_wins(pomdp, objective, mode, d.witness)


def test_solve_takes_the_reduction_path_for_wide_priorities():
    pomdp = tiny_mdp()
    objective = Objective.parity({"g": 0, "c": 2, "b": 1})
    d = solve_parity_fm(pomdp, objective, ALMOST)
    assert d.winning
    assert "reduced_states" in d.diagnostics
    assert chain_wins(pomdp, objective, ALMOST, d.witness)
    direct = solve_parity_fm(pomdp, Objective.parity(
        {"g": 2, "c": 2, "b": 1}), ALMOST)
    assert "reduced_states" not in direct.diagnostics


def test_solve_rejects_muller_objectives(ex1):
    pomdp, _ = ex1
    muller = Objective.muller({s: 0 for s in pomdp.states}, [{0}])
    with pytest.raises(UnsupportedConversionError):
        solve_parity_fm(pomdp, muller, ALMOST)


def test_solve_respects_its_budget(ex1):
    pomdp, objective = ex1
    with pytest.raises(ResourceLimitError):
        solve_parity_fm(pomdp, objective, ALMOST, budget=5)


def test_every_entry_refuses_a_negative_budget(ex1):
    pomdp, objective = ex1
    cobuchi = {s: 1 for s in pomdp.states}
    buchi = {s: 0 for s in pomdp.states}
    calls = [lambda: solve_parity_fm(pomdp, objective, ALMOST, budget=-5),
             lambda: solve_parity_fm(pomdp, objective, POSITIVE, budget=-5),
             lambda: solve_almost_cobuchi_fm(pomdp, cobuchi, budget=-5),
             lambda: solve_positive_buchi_fm(pomdp, buchi, budget=-5),
             lambda: almost_cobuchi_red(pomdp, cobuchi, budget=-5),
             lambda: positive_buchi_red(pomdp, buchi, budget=-5)]
    for call in calls:
        with pytest.raises(ContractError, match="budget must not be negative"):
            call()


def test_direct_pipelines_check_their_priority_ranges(ex1):
    pomdp, _ = ex1
    with pytest.raises(ContractError):
        solve_almost_cobuchi_fm(pomdp, {s: 0 for s in pomdp.states})
    with pytest.raises(ContractError):
        solve_positive_buchi_fm(pomdp, {s: 2 for s in pomdp.states})


def test_solver_agrees_with_memoryless_oracle_on_perfect_observation():
    """On perfectly observed models, per-state support tables are complete."""
    rng = random.Random(8002)
    for _ in range(25):
        pomdp = random_mdp(rng, max_states=3)
        objective = random_parity(rng, pomdp)
        for mode in (ALMOST, POSITIVE):
            d = solve_parity_fm(pomdp, objective, mode)
            enumerated = any(
                chain_wins(pomdp, objective, mode,
                           observation_stationary(pomdp, supports))
                for supports in all_memoryless_supports(pomdp))
            assert d.winning == enumerated
            if d.winning:
                assert chain_wins(pomdp, objective, mode, d.witness)


def test_solver_never_contradicts_the_bounded_search():
    rng = random.Random(8003)
    for _ in range(12):
        pomdp = random_pomdp(rng, max_states=3)
        objective = random_parity(rng, pomdp)
        for mode in (ALMOST, POSITIVE):
            d = solve_parity_fm(pomdp, objective, mode)
            r = oracle_decide(pomdp, objective, mode, 2, budget=20000)
            if r.verdict == "yes":
                assert d.winning
            if d.winning:
                assert chain_wins(pomdp, objective, mode, d.witness)


def test_solver_backs_the_bounded_search_where_the_modes_disagree():
    """The differential net on ``gamble_pomdp``, where a trap is reachable
    under some actions only: every oracle "yes" at k <= 2 is a solver
    "yes" in that mode, and every solver witness wins.  At least a
    quarter of the draws win positively but not almost surely."""
    rng = random.Random(8007)
    draws, disagree = 40, 0
    for _ in range(draws):
        pomdp, objective = gamble_pomdp(rng)
        verdicts = set()
        for mode in (ALMOST, POSITIVE):
            d = solve_parity_fm(pomdp, objective, mode)
            r = oracle_decide(pomdp, objective, mode, 2, budget=3000)
            if r.verdict == "yes":
                assert d.winning
            if d.winning:
                assert chain_wins(pomdp, objective, mode, d.witness)
            verdicts.add(d.winning)
        disagree += len(verdicts) == 2
    assert disagree >= draws // 4


def sharing_the_initial_observation(rng, pomdp):
    """The model with its initial state relabelled by the observation of a
    random other state (its own observation then labels nothing and goes)."""
    o = pomdp.obs_map[rng.choice(pomdp.states[1:])]
    obs_map = {**pomdp.obs_map, pomdp.initial_state: o}
    shared = Pomdp(pomdp.states, pomdp.actions,
                   tuple(x for x in pomdp.observations
                         if x in obs_map.values()),
                   obs_map, pomdp.transitions, pomdp.initial_state)
    assert validate(shared) == []
    return shared


def test_a_shared_initial_observation_keeps_verdicts():
    """Why ``validate`` lets other states share the initial observation:
    the chain starts at (s0, m0), the rewrites at the belief {s0}, so no
    pipeline reads the initial state's class.  On such models every
    oracle "yes" is a solver "yes", and every solver witness wins."""
    rng = random.Random(12)
    verdicts = Counter()
    for _ in range(80):
        pomdp = sharing_the_initial_observation(rng, random_pomdp(rng))
        objective = random_parity(rng, pomdp, top=3)
        for mode in (ALMOST, POSITIVE):
            d = solve_parity_fm(pomdp, objective, mode)
            r = oracle_decide(pomdp, objective, mode, 2, budget=3000)
            if r.verdict == "yes":
                assert d.winning
            if d.winning:
                assert chain_wins(pomdp, objective, mode, d.witness)
            verdicts[d.verdict, r.verdict] += 1
    assert verdicts["yes", "yes"] >= 60 and verdicts["no", "no"] >= 30
