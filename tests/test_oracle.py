"""Brute-force support enumeration: counting, canonicity, verdicts."""

import itertools
import random
from fractions import Fraction

import pytest

from pomparity import (ContractError, Objective, Pomdp, WinningMode,
                       build_product_chain, dump_chain, enumerate_strategies,
                       oracle_decide)
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
