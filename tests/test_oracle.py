"""Brute-force support enumeration: counting, canonicity, verdicts."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pomparity import (ContractError, FiniteMemoryStrategy, Objective, Pomdp,
                       StructuralError, WinningMode, build_product_chain,
                       dump_chain, enumerate_strategies, evaluate_qualitative,
                       make_absorbing, memory_bound, oracle_decide,
                       project_strategy, solve_parity_fm, stationary_strategy)
from pomparity import oracle
from pomparity.chain import _condense
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
            # the table derived from the weights, not the one handed over
            weighted = build_product_chain(
                pomdp, FiniteMemoryStrategy.supports.func(cand.to_strategy()))
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 2))
def test_the_solver_backs_every_two_memory_winner(rng, n_actions):
    """The differential net under the solver's single witness check: every
    oracle "yes" at k <= 2 is a solver "yes", and every solver witness,
    and its projection, wins on the input model.  Priorities 0..3 run
    both the direct and the reduced routes; without the traps (states
    made absorbing) no drawn model of this set gives the modes different
    verdicts, with them a few do."""
    pomdp = drawn_model(rng, n_actions)
    pomdp = make_absorbing(pomdp, [s for s in pomdp.states[1:]
                                   if rng.random() < 0.3])
    objective = Objective.parity({s: rng.randint(0, 3) for s in pomdp.states})
    for mode in (ALMOST, POSITIVE):
        d = solve_parity_fm(pomdp, objective, mode)
        if oracle_decide(pomdp, objective, mode, 2).verdict == "yes":
            assert d.winning
        if d.winning:
            assert chain_wins(pomdp, objective, mode, d.witness)
            projected = project_strategy(pomdp, d.witness,
                                         objective.priority_map)
            assert chain_wins(pomdp, objective, mode, projected)


def drawn_objective(rng: random.Random, pomdp: Pomdp, muller: bool) -> Objective:
    if not muller:
        return Objective.parity({s: rng.randint(0, 3) for s in pomdp.states})
    family = [f for f in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2})
              if rng.random() < 0.4]
    return Objective.muller({s: rng.randint(0, 2) for s in pomdp.states},
                            family)


def named_search(pomdp, objective, mode, k, budget):
    """The search as first written, on named candidates.

    Scans the named stream, at most ``budget`` candidates, and stops at
    its first winner: a candidate whose chain, built by name, gives every
    reached pair a successor and wins.
    """
    checked = 0
    for cand in enumerate_strategies(pomdp, k):
        if checked == budget:
            return "inconclusive", None, checked, False
        checked += 1
        chain = build_product_chain(pomdp, cand)
        if (all(chain.succ[n] for n in chain.nodes)
                and evaluate_qualitative(chain, objective, mode)):
            return "yes", cand, checked, True
    return "no", None, checked, k >= memory_bound(pomdp, objective)


def assert_same_search(pomdp, objective, mode, k, budget):
    verdict, cand, checked, definitive = named_search(
        pomdp, objective, mode, k, budget)
    r = oracle_decide(pomdp, objective, mode, k, budget=budget)
    assert (r.verdict, r.candidates, r.definitive) == (
        verdict, checked, definitive)
    assert r.witness == cand
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


def test_search_matches_the_named_path_on_pinned_models():
    # seed 9406 draws a model whose first almost-sure winner is candidate 3,
    # seed 9400 one without any two-memory winner
    for seed, outcome in ((9406, ("yes", 3)), (9400, ("no", 9804))):
        rng = random.Random(seed)
        pomdp = drawn_model(rng, 2)
        objective = drawn_objective(rng, pomdp, muller=False)
        assert assert_same_search(pomdp, objective, ALMOST, 2, None) == outcome
    assert assert_same_search(pomdp, objective, ALMOST, 2, 501) == (
        "inconclusive", 501)


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


# -- the bit-set kernel, candidate by candidate --

def outcome(judge):
    """The verdict of ``judge()``, or the message of its StructuralError."""
    try:
        return judge()
    except StructuralError as err:
        return str(err)


def assert_kernel_matches_the_named_chain(pomdp, objectives, k, limit=None):
    """Judge each candidate of the stream's first ``limit`` on bit sets and
    on its named chain, for every objective in both modes.  Returns how
    many candidates had each memory count, and how many judgements were
    each (memory count, playable, outcome)."""
    judges = [(objective, mode, oracle._judge(pomdp, objective, mode))
              for objective in objectives for mode in (ALMOST, POSITIVE)]
    group = parts = None
    memories, seen = collections.Counter(), collections.Counter()
    for cand_group, upd in itertools.islice(
            oracle._candidate_tables(pomdp, k), limit):
        if cand_group is not group:
            group, parts = cand_group, oracle._compile_group(pomdp, cand_group)
        memories[group[0]] += 1
        chain = build_product_chain(pomdp, oracle._named(pomdp, group, upd))
        playable = all(chain.succ[n] for n in chain.nodes)
        for objective, mode, judge in judges:
            got = outcome(lambda: judge(parts, group[0], upd))
            assert got == outcome(lambda: playable and evaluate_qualitative(
                chain, objective, mode))
            seen[group[0], playable, got] += 1
    return memories, seen


def test_kernel_judges_every_candidate_like_the_named_chain():
    rng = random.Random(9602)
    models = [drawn_model(rng, 1 + i % 2) for i in range(4)]
    # both kinds of two-action model: b unavailable at o1, and not
    assert [p.available["o1"] == {"a"} for p in models[1::2]] == [False, True]
    seen = collections.Counter()
    for pomdp in models:
        objectives = [drawn_objective(rng, pomdp, muller)
                      for muller in (False, True)]
        seen += assert_kernel_matches_the_named_chain(pomdp, objectives, 2)[1]
    # winners and losers with two memories, and unplayable candidates
    assert min(seen[2, True, True], seen[2, True, False],
               seen[2, False, False]) >= 100


def test_kernel_judges_three_memory_candidates_like_the_named_chain():
    rng = random.Random(9700)
    pomdp = drawn_model(rng, 1)
    objectives = [drawn_objective(rng, pomdp, muller)
                  for muller in (False, True)]
    memories, seen = assert_kernel_matches_the_named_chain(
        pomdp, objectives, 3, limit=1500)
    assert memories[3] > 1000
    assert min(seen[3, True, True], seen[3, True, False]) >= 100


def test_kernel_raises_the_missing_colour_error_at_the_same_candidates():
    seen = assert_kernel_matches_the_named_chain(
        gap_model(), [Objective.parity({"s0": 0, "s2": 0}),
                      Objective.muller({"s0": 0, "s2": 0}, [{0}])], 2)[1]
    assert seen[2, True, "objective assigns nothing to states: s1"] > 0


def test_bottom_classes_are_the_bottom_components():
    rng = random.Random(9800)
    for _ in range(400):
        n = rng.randint(1, 12)
        succ = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 3)))))
                for _ in range(n)]
        packed = sum(sum(1 << t for t in ts) << i * n
                     for i, ts in enumerate(succ))
        for roots in ((0,), range(n)):
            graph, comps, _, is_bottom = _condense(succ.__getitem__, roots, n)
            bottoms = oracle._bottom_classes(list(graph), packed, n)
            assert sorted(bottoms) == sorted(
                sum(1 << x for x in comp)
                for comp in itertools.compress(comps, is_bottom))
