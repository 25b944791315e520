"""Brute-force support enumeration: counting, canonicity, verdicts."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from pomparity import (ContractError, Objective, Pomdp, StructuralError,
                       WinningMode, build_product_chain, dump_chain,
                       enumerate_strategies, evaluate_qualitative, memory_bound,
                       oracle_decide, stationary_strategy)
from pomparity.cli import cli_main
from pomparity.modelio import fixture_text
from conftest import chain_wins, random_parity, random_pomdp

ALMOST = WinningMode.ALMOST_SURE
POSITIVE = WinningMode.POSITIVE


def loop(n_actions: int) -> Pomdp:
    """One self-looping state with the given number of actions."""
    acts = ("a", "b")[:n_actions]
    return Pomdp(states=("s",), actions=acts, observations=("o",),
                 obs_map={"s": "o"},
                 transitions={("s", a): {"s": Fraction(1)} for a in acts},
                 initial_state="s")


def signature(cand):
    upd = tuple(sorted((k, tuple(sorted(v)))
                       for k, v in cand.update_support.items()))
    act = tuple(sorted(cand.action_support.items()))
    return (cand.memories, act, upd, cand.initial)


def renamings(cand):
    """All signatures obtained by permuting the non-initial memories."""
    memories = cand.memories
    rest = [m for m in memories if m != cand.initial]
    for perm in itertools.permutations(rest):
        table = dict(zip(rest, perm))
        table[cand.initial] = cand.initial
        act = {table[m]: acts for m, acts in cand.action_support.items()}
        upd = {(table[m], o, a): tuple(sorted(table[t] for t in ts))
               for (m, o, a), ts in cand.update_support.items()}
        yield (memories, tuple(sorted(act.items())),
               tuple(sorted(upd.items())), cand.initial)


def test_single_memory_count_is_action_subsets():
    cands = list(enumerate_strategies(loop(2), 1))
    assert len(cands) == 3
    assert sorted(c.action_support["m0"] for c in cands) == [
        ("a",), ("a", "b"), ("b",)]


def test_two_memory_count_on_the_trivial_signature():
    assert len(list(enumerate_strategies(loop(1), 2))) == 10


def test_canonical_stream_partitions_the_raw_stream():
    pomdp = loop(1)
    raw = [signature(c) for c in enumerate_strategies(pomdp, 3, canonical=False)]
    assert len(raw) == len(set(raw)) == 1 + 9 + 343
    canon = {signature(c) for c in enumerate_strategies(pomdp, 3)}
    assert len(canon) == 1 + 9 + 182
    assert canon <= set(raw)
    for cand in enumerate_strategies(pomdp, 3, canonical=False):
        orbit = set(renamings(cand))
        assert len(orbit & canon) == 1


def test_enumeration_is_deterministic(ex1):
    pomdp, _ = ex1
    first = [signature(c) for c in enumerate_strategies(pomdp, 2)]
    second = [signature(c) for c in enumerate_strategies(pomdp, 2)]
    assert first == second


def test_memory_bound_must_be_positive(ex1):
    pomdp, objective = ex1
    with pytest.raises(ContractError):
        list(enumerate_strategies(pomdp, 0))
    with pytest.raises(ContractError):
        oracle_decide(pomdp, objective, ALMOST, 0)
    with pytest.raises(ContractError):
        oracle_decide(pomdp, objective, ALMOST, 1, jobs=0)


def test_ex1_needs_two_memories(ex1):
    pomdp, objective = ex1
    r1 = oracle_decide(pomdp, objective, ALMOST, 1)
    assert r1.verdict == "no"
    assert not r1.definitive
    assert r1.witness is None
    assert r1.candidates == 3
    r2 = oracle_decide(pomdp, objective, ALMOST, 2)
    assert r2.verdict == "yes"
    assert r2.definitive
    assert r2.candidates == 94
    assert len(r2.witness.memories) == 2
    assert chain_wins(pomdp, objective, ALMOST, r2.witness)


def test_parallel_search_reports_the_same_winner(ex1):
    pomdp, objective = ex1
    lone = oracle_decide(pomdp, objective, ALMOST, 2)
    pair = oracle_decide(pomdp, objective, ALMOST, 2, jobs=2)
    assert pair.verdict == "yes"
    assert pair.witness.action_select == lone.witness.action_select
    assert pair.witness.memory_update == lone.witness.memory_update


def test_budget_exhaustion_is_inconclusive(ex1):
    pomdp, objective = ex1
    r = oracle_decide(pomdp, objective, ALMOST, 2, budget=10)
    assert r.verdict == "inconclusive"
    assert not r.definitive
    assert r.witness is None
    assert r.candidates <= 10


def test_negative_budget_is_a_contract_error(ex1, tmp_path, capsys):
    pomdp, objective = ex1
    with pytest.raises(ContractError, match="budget"):
        oracle_decide(pomdp, objective, ALMOST, 2, budget=-3)
    model = tmp_path / "ex1.pomdp"
    model.write_text(fixture_text("ex1"), encoding="utf-8")
    code = cli_main(["oracle", str(model), "--mode", "almost",
                     "--memory-bound", "2", "--budget", "-3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "budget must not be negative" in err


def test_trivially_winning_loop():
    pomdp = loop(1)
    r = oracle_decide(pomdp, Objective.parity({"s": 0}), ALMOST, 1)
    assert r.verdict == "yes"
    assert r.definitive
    assert r.candidates == 1
    assert chain_wins(pomdp, Objective.parity({"s": 0}), ALMOST, r.witness)


def test_muller_objectives_are_searched_natively():
    one = Fraction(1)
    pomdp = Pomdp(states=("x", "y"), actions=("a",), observations=("o",),
                  obs_map={"x": "o", "y": "o"},
                  transitions={("x", "a"): {"y": one}, ("y", "a"): {"x": one}},
                  initial_state="x")
    colors = {"x": 0, "y": 1}
    win = oracle_decide(pomdp, Objective.muller(colors, [{0, 1}]), ALMOST, 1)
    assert win.verdict == "yes"
    lose = oracle_decide(pomdp, Objective.muller(colors, [{0}]), ALMOST, 1)
    assert lose.verdict == "no"
    assert not lose.definitive


def test_unplayable_candidates_are_never_winners():
    # at o0 only action a is playable and it leads to the bad trap; a
    # support strategy playing only b would deadlock at s0 and must not be
    # mistaken for a winner
    one = Fraction(1)
    pomdp = Pomdp(states=("s0", "s1"), actions=("a", "b"),
                  observations=("o0", "o1"),
                  obs_map={"s0": "o0", "s1": "o1"},
                  transitions={("s0", "a"): {"s1": one},
                               ("s1", "a"): {"s1": one},
                               ("s1", "b"): {"s1": one}},
                  initial_state="s0",
                  available={"o0": frozenset({"a"})})
    objective = Objective.parity({"s0": 0, "s1": 1})
    for mode in (ALMOST, POSITIVE):
        r = oracle_decide(pomdp, objective, mode, 2)
        assert r.verdict == "no"


def test_oracle_witnesses_verify_on_random_instances():
    rng = random.Random(9000)
    seen_yes = 0
    for _ in range(15):
        pomdp = random_pomdp(rng, max_states=3, max_obs=2)
        objective = random_parity(rng, pomdp)
        for mode in (ALMOST, POSITIVE):
            r = oracle_decide(pomdp, objective, mode, 2, budget=15000)
            if r.verdict == "yes":
                seen_yes += 1
                chain = build_product_chain(pomdp, r.witness)
                assert all(chain.succ[n] for n in chain.nodes)
                assert chain_wins(pomdp, objective, mode, r.witness)
    assert seen_yes > 5


def test_support_strategies_chain_like_their_uniform_realizations():
    rng = random.Random(9100)
    for n_actions in (1, 2, 2):
        pomdp = random_pomdp(rng, max_states=3, n_actions=n_actions,
                             max_obs=2)
        for cand in enumerate_strategies(pomdp, 2):
            direct = build_product_chain(pomdp, cand)
            weighted = build_product_chain(pomdp, cand.to_strategy())
            assert direct.nodes == weighted.nodes
            assert direct.succ == weighted.succ
            assert direct.bottom_sccs() == weighted.bottom_sccs()
            assert dump_chain(direct) == dump_chain(weighted)


# -- the search against the named path --

def drawn_model(rng: random.Random, n_actions: int) -> Pomdp:
    """2-4 states; the initial state observes o0 alone, the rest share o1.

    With two actions, action b is unavailable at o1 in about half the
    models, so some candidates select an action their states cannot play.
    """
    n = rng.randint(2, 4)
    states = tuple(f"s{i}" for i in range(n))
    actions = ("a", "b")[:n_actions]
    obs_map = {s: "o1" for s in states}
    obs_map["s0"] = "o0"
    available = ({"o1": frozenset({"a"})}
                 if n_actions == 2 and rng.random() < 0.5 else {})
    one = Fraction(1)
    transitions = {}
    for s in states:
        for a in actions:
            if a in available.get(obs_map[s], actions):
                support = rng.sample(states, rng.randint(1, 2))
                transitions[(s, a)] = {t: one / len(support) for t in support}
    return Pomdp(states=states, actions=actions, observations=("o0", "o1"),
                 obs_map=obs_map, transitions=transitions,
                 initial_state="s0", available=available)


def drawn_objective(rng: random.Random, pomdp: Pomdp, muller: bool) -> Objective:
    if not muller:
        return Objective.parity({s: rng.randint(0, 3) for s in pomdp.states})
    family = [f for f in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2})
              if rng.random() < 0.4]
    return Objective.muller({s: rng.randint(0, 2) for s in pomdp.states},
                            family)


def named_search(pomdp, objective, mode, k, budget, jobs=1):
    """The search as first written, on named candidates.

    Worker w of ``jobs`` scans every jobs-th candidate of the named stream
    from w, at most its share of the budget, and stops at its first
    winner: a candidate whose chain, built by name, gives every reached
    pair a successor and wins.  The least winning index is the winner.
    """
    share = None if budget is None else -(-budget // jobs)
    winners, checked, exhausted = [], 0, True
    for w in range(jobs):
        stream = itertools.islice(enumerate_strategies(pomdp, k), w, None, jobs)
        for offset, cand in enumerate(stream):
            if share is not None and offset >= share:
                exhausted = False
                break
            checked += 1
            chain = build_product_chain(pomdp, cand)
            if (all(chain.succ[n] for n in chain.nodes)
                    and evaluate_qualitative(chain, objective, mode)):
                winners.append((w + offset * jobs, cand))
                break
    if winners:
        return "yes", min(winners, key=lambda w: w[0])[1], checked, True
    if exhausted:
        return "no", None, checked, k >= memory_bound(pomdp, objective)
    return "inconclusive", None, checked, False


def assert_same_search(pomdp, objective, mode, k, budget, jobs=1):
    verdict, cand, checked, definitive = named_search(
        pomdp, objective, mode, k, budget, jobs)
    r = oracle_decide(pomdp, objective, mode, k, budget=budget, jobs=jobs)
    assert (r.verdict, r.candidates, r.definitive) == (
        verdict, checked, definitive)
    assert r.witness == (None if cand is None else cand.to_strategy())
    return verdict, checked


def test_search_matches_the_named_path_on_random_models():
    rng = random.Random(9200)
    verdicts = collections.Counter()
    for i in range(24):
        n_actions = 1 + i % 2
        pomdp = drawn_model(rng, n_actions)
        objective = drawn_objective(rng, pomdp, muller=i % 4 >= 2)
        for mode in (ALMOST, POSITIVE):
            # the full two-memory stream is 9,804 candidates with two actions
            for k, budget in ((1, None), (2, None if n_actions == 1 else 400),
                              (2, 3)):
                verdict, _ = assert_same_search(pomdp, objective, mode, k,
                                                budget)
                verdicts[verdict] += 1
    assert min(verdicts["yes"], verdicts["no"], verdicts["inconclusive"]) >= 10


def test_search_matches_the_named_path_over_whole_streams():
    rng = random.Random(9300)
    for muller in (False, True):
        pomdp = drawn_model(rng, 2)
        objective = drawn_objective(rng, pomdp, muller)
        for mode in (ALMOST, POSITIVE):
            assert_same_search(pomdp, objective, mode, 2, None)


def test_parallel_search_matches_the_named_path():
    # seed 9406 draws a model whose first almost-sure winner is candidate 3,
    # seed 9400 one without any two-memory winner
    for seed, verdict in ((9406, "yes"), (9400, "no")):
        rng = random.Random(seed)
        pomdp = drawn_model(rng, 2)
        objective = drawn_objective(rng, pomdp, muller=False)
        assert assert_same_search(pomdp, objective, ALMOST, 2, None,
                                  jobs=2)[0] == verdict
    assert assert_same_search(pomdp, objective, ALMOST, 2, 501, jobs=2) == (
        "inconclusive", 502)


# -- states the objective does not colour --

def gap_model() -> Pomdp:
    """s0 -> s1, a self-loop; s2 loops but is unreachable from s0."""
    one = Fraction(1)
    return Pomdp(states=("s0", "s1", "s2"), actions=("a",),
                 observations=("o0", "o1"),
                 obs_map={"s0": "o0", "s1": "o1", "s2": "o1"},
                 transitions={("s0", "a"): {"s1": one},
                              ("s1", "a"): {"s1": one},
                              ("s2", "a"): {"s2": one}},
                 initial_state="s0")


def test_a_reached_state_without_colour_is_a_structural_error():
    pomdp = gap_model()
    chain = build_product_chain(pomdp, stationary_strategy(pomdp, ["a"]))
    for objective in (Objective.parity({"s0": 0, "s2": 0}),
                      Objective.muller({"s0": 0, "s2": 0}, [{0}])):
        for mode in (ALMOST, POSITIVE):
            with pytest.raises(StructuralError,
                               match="objective assigns nothing to states: s1$"):
                evaluate_qualitative(chain, objective, mode)
            with pytest.raises(StructuralError,
                               match="objective assigns nothing to states: s1$"):
                oracle_decide(pomdp, objective, mode, 2)


def test_an_unreached_state_needs_no_colour():
    pomdp = gap_model()
    chain = build_product_chain(pomdp, stationary_strategy(pomdp, ["a"]))
    objective = Objective.parity({"s0": 1, "s1": 0})
    for mode in (ALMOST, POSITIVE):
        assert evaluate_qualitative(chain, objective, mode)
        r = oracle_decide(pomdp, objective, mode, 2)
        assert (r.verdict, r.candidates) == ("yes", 1)
    lose = Objective.parity({"s0": 0, "s1": 1})
    assert oracle_decide(pomdp, lose, ALMOST, 1).verdict == "no"
