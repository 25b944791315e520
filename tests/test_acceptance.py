"""Acceptance gate: the ten checks this package must pass.

Each test prints one ``CRITERION n: PASS``/``FAIL`` line (visible under
``pytest -s``); the named limits on instance counts and wall time are
asserted inside the tests themselves.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import islice

import pytest

from pomparity import (Objective, WinningMode,
                       almost_buchi, almost_safe, build_product_chain,
                       build_projection_graph, belief_update,
                       compute_rec_functions, enumerate_strategies,
                       evaluate_qualitative, objective_as_parity,
                       parity_to_three, positive_parity_to_buchi,
                       project_strategy, restrict_strategy, solve_parity_fm,
                       stationary_strategy, three_to_cobuchi,
                       transfer_strategy)
from conftest import (all_memoryless_supports, alternating, chain_wins,
                      observation_stationary, random_belief_obs_pomdp,
                      random_mdp, random_parity, random_pomdp, random_strategy)

ALMOST = WinningMode.ALMOST_SURE
POSITIVE = WinningMode.POSITIVE

#: Verdict of every independent witness check performed by ``decide``;
#: criterion 8 asserts the collection is non-empty and all-true.
WITNESS_CHECKS: list[bool] = []


@contextmanager
def criterion(number):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL", flush=True)
        raise
    print(f"CRITERION {number}: PASS", flush=True)


def decide(pomdp, objective, mode, **kwargs):
    """Solve and, on a yes, re-verify the witness through the chain module."""
    decision = solve_parity_fm(pomdp, objective, mode, **kwargs)
    if decision.winning:
        sound = chain_wins(pomdp, objective, mode, decision.witness)
        WITNESS_CHECKS.append(sound)
        assert sound, "winning decision whose witness fails the chain check"
    return decision


def bottom_state_sets(chain):
    return [frozenset(s for s, _ in scc) for scc in chain.bottom_sccs()]


# -- 1..3: worked-example reproduction ---------------------------------------

def test_criterion_01_alternation_example(ex1):
    with criterion(1):
        started = time.perf_counter()
        pomdp, objective = ex1
        assert decide(pomdp, objective, ALMOST).winning

        _, parity = objective_as_parity(pomdp, objective)
        everything = frozenset({"X", "X'", "Y", "Y'", "Z", "Z'"})
        for support in ({"a"}, {"b"}, {"a", "b"}):
            chain = build_product_chain(pomdp, stationary_strategy(pomdp, support))
            assert not evaluate_qualitative(chain, parity, ALMOST)
            assert bottom_state_sets(chain) == [everything]

        chain = build_product_chain(pomdp, alternating(pomdp))
        assert evaluate_qualitative(chain, parity, ALMOST)
        assert {frozenset(scc) for scc in chain.bottom_sccs()} == {
            frozenset({("X", "ma"), ("X'", "mb")}),
            frozenset({("Z", "mb"), ("Z'", "ma")}),
        }
        assert time.perf_counter() - started < 1.0


def test_criterion_02_revisiting_example(ex2):
    with criterion(2):
        started = time.perf_counter()
        pomdp, objective = ex2
        assert decide(pomdp, objective, ALMOST).winning

        _, parity = objective_as_parity(pomdp, objective)
        for support in ({"a"}, {"b"}, {"a", "b"}):
            chain = build_product_chain(pomdp, stationary_strategy(pomdp, support))
            assert not evaluate_qualitative(chain, parity, ALMOST)
            assert any("B" in states for states in bottom_state_sets(chain))

        chain = build_product_chain(pomdp, alternating(pomdp))
        assert evaluate_qualitative(chain, parity, ALMOST)
        assert all("B" not in states for states in bottom_state_sets(chain))
        assert time.perf_counter() - started < 1.0


def test_criterion_03_positive_repeated_visits(ex2fix):
    with criterion(3):
        started = time.perf_counter()
        pomdp, objective = ex2fix
        _, parity = objective_as_parity(pomdp, objective)
        for support in ({"a"}, {"b"}, {"a", "b"}):
            chain = build_product_chain(pomdp, stationary_strategy(pomdp, support))
            assert not evaluate_qualitative(chain, parity, POSITIVE)
            assert bottom_state_sets(chain) == [frozenset({"B"})]

        assert chain_wins(pomdp, objective, POSITIVE, alternating(pomdp))
        assert decide(pomdp, objective, POSITIVE).winning
        assert time.perf_counter() - started < 1.0


# -- 4..5: the projection suite ----------------------------------------------

N_PROJECTION_PAIRS = 200


@pytest.fixture(scope="module")
def projection_pairs():
    rng = random.Random(41004)
    pairs = []
    for _ in range(N_PROJECTION_PAIRS):
        pomdp = random_pomdp(rng)                 # |S| <= 4, two actions
        objective = random_parity(rng, pomdp)     # priorities in {0, 1, 2}
        sigma = random_strategy(rng, pomdp)       # |M| <= 3
        pairs.append((pomdp, objective, sigma))
    return pairs


def test_criterion_04_projection_preserves_recurrence_and_verdicts(projection_pairs):
    with criterion(4):
        started = time.perf_counter()
        for pomdp, objective, sigma in projection_pairs:
            colors = objective.priority_map
            projected = project_strategy(pomdp, sigma, colors)

            rec_base = compute_rec_functions(pomdp, sigma, colors)
            rec_proj = compute_rec_functions(pomdp, projected, colors)
            s0 = pomdp.initial_state
            assert (rec_proj.set_rec[projected.initial][s0]
                    == rec_base.set_rec[sigma.initial_memory][s0])

            for mode in (ALMOST, POSITIVE):
                assert (chain_wins(pomdp, objective, mode, projected)
                        == chain_wins(pomdp, objective, mode, sigma))

            n = len(pomdp.states)
            d = len(set(colors.values()))
            assert len(projected.memories) <= 2 ** (2 * n) * d ** n
        assert time.perf_counter() - started < 60.0


def test_criterion_05_projection_graph_invariants(projection_pairs):
    with criterion(5):
        for pomdp, objective, sigma in projection_pairs:
            colors = objective.priority_map
            rec = compute_rec_functions(pomdp, sigma, colors)
            keys = {}
            for m in sigma.memories:
                brec = frozenset(s for s in pomdp.states if rec.bool_rec[m][s])
                srec = tuple(sorted((s, rec.set_rec[m][s]) for s in pomdp.states))
                keys[m] = (brec, srec)

            graph = build_projection_graph(pomdp, sigma, colors)
            for v in graph.vertices:
                matching = [m for m in sigma.memories if keys[m] == (v.brec, v.srec)]
                assert matching, "projection vertex with no originating memory"
                for a, succs in graph.edges[v].items():
                    assert any(a in sigma.supports.action_support.get(m, ())
                               for m in matching)
                    for v2 in succs:
                        assert v2.belief
                        o2 = pomdp.obs_map[next(iter(v2.belief))]
                        assert v2.belief == belief_update(pomdp, v.belief, a, o2)

            # pseudo-recurrence is absorbing along both the base and the
            # projected product chain, and colour collections only narrow
            for strat, functions in ((sigma, rec),
                                     (project_strategy(pomdp, sigma, colors),
                                      None)):
                if functions is None:
                    functions = compute_rec_functions(pomdp, strat, colors)
                chain = build_product_chain(pomdp, strat)
                for s, m in chain.nodes:
                    assert functions.set_rec[m][s], "empty recurrence summary"
                    for t, m2 in chain.succ[(s, m)]:
                        assert functions.set_rec[m2][t] <= functions.set_rec[m][s]
                        if functions.bool_rec[m][s]:
                            assert functions.bool_rec[m2][t] == 1
                            only = next(iter(functions.set_rec[m][s]))
                            assert len(functions.set_rec[m][s]) == 1
                            assert colors[t] in only


# -- 6: per-strategy verdict transfer across the reductions -------------------

N_REDUCTION_INSTANCES = 100
FORWARD_CAP = 800      # canonical-prefix sweep size on capped instances
REVERSE_CAP = 25       # reduced-signature strategies restricted back per step
N_EXHAUSTIVE = 3       # two-observation instances swept with no cap at all


def test_criterion_06_reduction_verdict_transfer():
    with criterion(6):
        started = time.perf_counter()
        rng = random.Random(41006)
        exhaustive_left = N_EXHAUSTIVE
        for _ in range(N_REDUCTION_INSTANCES):
            pomdp = random_pomdp(rng, max_states=3)
            parity = random_parity(rng, pomdp)

            buc = positive_parity_to_buchi(pomdp, parity)
            three = parity_to_three(pomdp, parity)
            cob = three_to_cobuchi(three.pomdp, three.objective)
            _, buc_parity = objective_as_parity(buc.pomdp, buc.objective)
            _, cob_parity = objective_as_parity(cob.pomdp, cob.objective)

            if exhaustive_left and len(pomdp.observations) == 2:
                exhaustive_left -= 1
                stream = enumerate_strategies(pomdp, 2)
            else:
                stream = islice(enumerate_strategies(pomdp, 2), FORWARD_CAP)
            for candidate in stream:
                sigma = candidate.to_strategy()
                chain = build_product_chain(pomdp, sigma)
                base_pos = evaluate_qualitative(chain, parity, POSITIVE)
                base_alm = evaluate_qualitative(chain, parity, ALMOST)

                lifted = transfer_strategy(buc, sigma)
                assert evaluate_qualitative(
                    build_product_chain(buc.pomdp, lifted),
                    buc_parity, POSITIVE) == base_pos

                squeezed = transfer_strategy(three, sigma)
                assert evaluate_qualitative(
                    build_product_chain(three.pomdp, squeezed),
                    three.objective, ALMOST) == base_alm

                relaxed = transfer_strategy(cob, squeezed)
                assert evaluate_qualitative(
                    build_product_chain(cob.pomdp, relaxed),
                    cob_parity, ALMOST) == base_alm

            # and back down: strategies of the reduced signature keep their
            # verdict when their fresh-observation rows are dropped
            for out, base, base_obj, mode in (
                    (buc, pomdp, parity, POSITIVE),
                    (three, pomdp, parity, ALMOST),
                    (cob, three.pomdp, three.objective, ALMOST)):
                _, reduced_obj = objective_as_parity(out.pomdp, out.objective)
                for candidate in islice(enumerate_strategies(out.pomdp, 2),
                                        REVERSE_CAP):
                    sigma = candidate.to_strategy()
                    up = evaluate_qualitative(
                        build_product_chain(out.pomdp, sigma), reduced_obj, mode)
                    down = evaluate_qualitative(
                        build_product_chain(base, restrict_strategy(base, sigma)),
                        base_obj, mode)
                    assert up == down
        assert exhaustive_left == 0, "never saw a two-observation instance"
        assert time.perf_counter() - started < 120.0


# -- 7: fixpoints against memoryless enumeration ------------------------------

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


def test_criterion_07_fixpoints_match_enumeration():
    with criterion(7):
        started = time.perf_counter()
        rng = random.Random(41007)
        for _ in range(100):
            pomdp = random_belief_obs_pomdp(rng)
            o0 = pomdp.obs_map[pomdp.initial_state]

            safe = {s for s in pomdp.states if rng.random() < 0.7}
            y, sigma = almost_safe(pomdp, safe)
            assert y == winning_obs_by_enumeration(pomdp, Objective.safe(safe))
            if o0 in y:
                sound = chain_wins(pomdp, Objective.safe(safe), ALMOST, sigma)
                WITNESS_CHECKS.append(sound)
                assert sound

            targets = ({s for s in pomdp.states if rng.random() < 0.4}
                       or {pomdp.states[-1]})
            y, sigma = almost_buchi(pomdp, targets)
            assert y == winning_obs_by_enumeration(pomdp, Objective.buchi(targets))
            if o0 in y:
                sound = chain_wins(pomdp, Objective.buchi(targets), ALMOST, sigma)
                WITNESS_CHECKS.append(sound)
                assert sound
        assert time.perf_counter() - started < 60.0


# -- 8: witness soundness, everywhere ------------------------------------------

def test_criterion_08_every_yes_has_a_verifying_witness(ex1, ex2, ex2fix):
    with criterion(8):
        # a standalone batch, so this check means something even when the
        # other suites have not run in this process
        for pomdp, objective in (ex1, ex2, ex2fix):
            for mode in (ALMOST, POSITIVE):
                decide(pomdp, objective, mode)
        rng = random.Random(41008)
        for _ in range(25):
            mdp = random_mdp(rng)
            parity = random_parity(rng, mdp)
            for mode in (ALMOST, POSITIVE):
                decide(mdp, parity, mode)
        assert WITNESS_CHECKS, "no winning decision was ever produced"
        assert all(WITNESS_CHECKS)


# -- 9: perfect observation against brute force --------------------------------

def test_criterion_09_perfect_observation_cross_check():
    with criterion(9):
        rng = random.Random(41009)
        for _ in range(100):
            mdp = random_mdp(rng, max_states=4)
            parity = random_parity(rng, mdp)    # priorities in {0, 1, 2}
            tables = list(all_memoryless_supports(mdp))
            for mode in (ALMOST, POSITIVE):
                enumerated = any(
                    chain_wins(mdp, parity, mode, observation_stationary(mdp, t))
                    for t in tables)
                assert decide(mdp, parity, mode).winning == enumerated


# -- 10: everything fits in the default state budget ---------------------------

def test_criterion_10_default_budget_suffices(ex1, ex2):
    with criterion(10):
        for pomdp, objective in (ex1, ex2):
            for mode in (ALMOST, POSITIVE):
                decision = decide(pomdp, objective, mode)
                assert decision.diagnostics.get("states_constructed", 0) <= 10 ** 6
        rng = random.Random(41010)
        for _ in range(60):
            pomdp = random_pomdp(rng, max_states=4)
            parity = random_parity(rng, pomdp)
            for mode in (ALMOST, POSITIVE):
                decision = decide(pomdp, parity, mode)
                assert decision.diagnostics.get("states_constructed", 0) <= 10 ** 6
