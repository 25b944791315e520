"""Objective reductions: structure, bookkeeping, per-strategy verdict transfer."""

import random
from fractions import Fraction

import pytest

from pomparity import (ContractError, Objective, Pomdp, WinningMode,
                       almost_parity_to_cobuchi, objective_as_parity,
                       parity_to_three, positive_parity_to_buchi,
                       restrict_strategy, solve_parity_fm,
                       stationary_strategy, three_to_cobuchi,
                       transfer_strategy, validate)
from pomparity.reductions import ROLE_INITIAL, ROLE_SINK
from conftest import (alternating, chain_wins, random_parity, random_pomdp,
                      random_strategy)

ALMOST = WinningMode.ALMOST_SURE
POSITIVE = WinningMode.POSITIVE


def as_parity(model_pair):
    pomdp, objective = model_pair
    return objective_as_parity(pomdp, objective)


def reduced_wins(out, mode, sigma):
    """Run an original-model strategy on a reduced model, completed there."""
    return chain_wins(out.pomdp, out.objective, mode,
                      transfer_strategy(out, sigma))


def check_copy_bookkeeping(pomdp, out, n_copies):
    """state_origin covers each copy injectively and tags fresh states."""
    for i in range(n_copies):
        cmap = out.copy_states(i)
        assert sorted(cmap) == sorted(pomdp.states)
        assert len(set(cmap.values())) == len(pomdp.states)
        for orig, new in cmap.items():
            assert out.pomdp.obs_map[new] == pomdp.obs_map[orig]
    tagged = set()
    for members in (out.copy_states(i).values() for i in range(n_copies)):
        tagged |= set(members)
    tagged |= set(out.fresh_states().values())
    assert tagged == set(out.pomdp.states)


def test_buchi_reduction_shape_on_ex1(ex1):
    base, parity = as_parity(ex1)
    out = positive_parity_to_buchi(base, parity)
    # priorities reach 2, so copies claim 0 and 2
    assert len(out.pomdp.states) == 2 * len(base.states) + 2
    check_copy_bookkeeping(base, out, 2)
    fresh = out.fresh_states()
    assert set(fresh) == {ROLE_INITIAL, ROLE_SINK}
    assert out.pomdp.initial_state == fresh[ROLE_INITIAL]
    for new in fresh.values():
        o = out.pomdp.obs_map[new]
        assert o not in base.observations
        assert [s for s in out.pomdp.states if out.pomdp.obs_map[s] == o] == [new]
    assert validate(out.pomdp) == []


def test_buchi_reduction_targets_on_ex1(ex1):
    base, parity = as_parity(ex1)
    out = positive_parity_to_buchi(base, parity)
    # claim honest at copy 1 exactly on the priority-2 states; copy 0 needs
    # priority 0, which EX1 does not use
    c1 = out.copy_states(1)
    expected = {c1[s] for s in base.states if parity.priority_map[s] == 2}
    assert set(out.objective.targets) == expected


def test_buchi_reduction_halves_low_priority_rows(ex1):
    base, parity = as_parity(ex1)
    out = positive_parity_to_buchi(base, parity)
    sink = out.fresh_states()[ROLE_SINK]
    c1 = out.copy_states(1)
    for s in base.states:
        for a in base.available_at(base.obs_map[s]):
            row = out.pomdp.dist(c1[s], a)
            if parity.priority_map[s] >= 2:
                assert sink not in row
            else:
                assert row[sink] == Fraction(1, 2)


def test_three_reduction_shape_on_ex1(ex1):
    base, parity = as_parity(ex1)
    out = parity_to_three(base, parity)
    assert len(out.pomdp.states) == 2 * len(base.states)
    assert out.pomdp.observations == base.observations
    assert out.fresh_states() == {}
    check_copy_bookkeeping(base, out, 2)
    assert out.pomdp.initial_state == out.copy_states(1)[base.initial_state]
    assert set(out.objective.priority_map.values()) <= {0, 1, 2}


def test_cobuchi_rewrite_rejects_wide_priorities():
    rng = random.Random(4000)
    pomdp = random_pomdp(rng)
    prio = {s: 2 for s in pomdp.states}
    prio[pomdp.states[-1]] = 3
    with pytest.raises(ContractError) as err:
        three_to_cobuchi(pomdp, Objective.parity(prio))
    assert pomdp.states[-1] in str(err.value)


def test_cobuchi_rewrite_shape():
    rng = random.Random(4001)
    pomdp = random_pomdp(rng)
    objective = random_parity(rng, pomdp, top=2)
    out = three_to_cobuchi(pomdp, objective)
    fresh = out.fresh_states()
    assert set(fresh) == {ROLE_SINK}
    sink = fresh[ROLE_SINK]
    assert len(out.pomdp.states) == len(pomdp.states) + 1
    assert out.pomdp.initial_state == pomdp.initial_state
    allowed = set(out.objective.targets)
    assert sink in allowed
    for s in pomdp.states:
        assert (s in allowed) == (objective.priority_map[s] != 1)
        for a in pomdp.available_at(pomdp.obs_map[s]):
            row = out.pomdp.dist(s, a)
            if objective.priority_map[s] == 0:
                assert row[sink] == Fraction(1, 2)
            else:
                assert row == pomdp.dist(s, a)
    assert validate(out.pomdp) == []


def test_composed_rewrite_origin_bookkeeping(ex1):
    base, parity = as_parity(ex1)
    out = almost_parity_to_cobuchi(base, parity)
    assert len(out.pomdp.states) == 2 * len(base.states) + 1
    check_copy_bookkeeping(base, out, 2)
    assert set(out.fresh_states()) == {ROLE_SINK}


def declared_max_models(ex1, ex2, draws, seed=11):
    """ex1, ex2 and seeded parity models, each with the priorities it uses
    and with the used maximum declared one and two above."""
    rng = random.Random(seed)
    models = [as_parity(ex1), as_parity(ex2)]
    for _ in range(draws):
        pomdp = random_pomdp(rng)
        models.append((pomdp, random_parity(rng, pomdp, top=rng.choice((2, 3)))))
    for pomdp, parity in models:
        used = max(parity.priority_map.values())
        yield pomdp, parity, [Objective.parity(parity.priority_map, declared_max=used + k)
                              for k in (1, 2)]


def test_a_declared_maximum_sets_the_copy_count(ex1, ex2):
    """Every reduction's copy count d follows the declared top, not the
    top used: d + 1 = top // 2 + 1 copies for the almost-sure route, and
    (top + 1) // 2 + 1 for the positive one, whose range rounds up to even."""
    for pomdp, parity, declared in declared_max_models(ex1, ex2, 30):
        n, used = len(pomdp.states), max(parity.priority_map.values())
        for objective in [parity, *declared]:
            top = objective.max_priority
            assert top == (objective.declared_max or used)
            buchi = positive_parity_to_buchi(pomdp, objective)
            assert len(buchi.pomdp.states) == n * ((top + 1) // 2 + 1) + 2
            check_copy_bookkeeping(pomdp, buchi, (top + 1) // 2 + 1)
            three = parity_to_three(pomdp, objective)
            assert len(three.pomdp.states) == n * (top // 2 + 1)
            check_copy_bookkeeping(pomdp, three, top // 2 + 1)
            assert three.pomdp.initial_state == \
                three.copy_states(top // 2)[pomdp.initial_state]
            cob = three_to_cobuchi(three.pomdp, three.objective)
            assert len(cob.pomdp.states) == n * (top // 2 + 1) + 1
            composed = almost_parity_to_cobuchi(pomdp, objective)
            assert composed.pomdp.states == cob.pomdp.states
            check_copy_bookkeeping(pomdp, composed, top // 2 + 1)


def test_unused_priorities_never_change_the_winners(ex1, ex2):
    """The ``positive_parity_to_buchi`` docstring's claim, on the solver:
    declaring a maximum one or two above the used one keeps every verdict,
    in both modes."""
    pairs = 0
    for pomdp, parity, declared in declared_max_models(ex1, ex2, 60):
        for mode in (ALMOST, POSITIVE):
            plain = solve_parity_fm(pomdp, parity, mode).winning
            for objective in declared:
                assert solve_parity_fm(pomdp, objective, mode).winning == plain
                pairs += 1
    assert pairs == 248


def test_reductions_need_a_parity_objective(ex1):
    pomdp, _ = ex1
    reach = Objective.reach({"X"})
    for rewrite in (positive_parity_to_buchi, parity_to_three,
                    almost_parity_to_cobuchi):
        with pytest.raises(ContractError):
            rewrite(pomdp, reach)


def test_alternating_strategy_verdicts_transfer_on_ex1(ex1):
    base, parity = as_parity(ex1)
    sigma = alternating(base)
    assert chain_wins(base, parity, ALMOST, sigma)
    assert reduced_wins(positive_parity_to_buchi(base, parity), POSITIVE, sigma)
    assert reduced_wins(parity_to_three(base, parity), ALMOST, sigma)
    assert reduced_wins(almost_parity_to_cobuchi(base, parity), ALMOST, sigma)


def test_stationary_strategies_fail_on_both_sides_of_ex1(ex1):
    base, parity = as_parity(ex1)
    buchi = positive_parity_to_buchi(base, parity)
    cob = almost_parity_to_cobuchi(base, parity)
    for support in (("a",), ("b",), ("a", "b")):
        sigma = stationary_strategy(base, support)
        assert not chain_wins(base, parity, POSITIVE, sigma)
        assert not reduced_wins(buchi, POSITIVE, sigma)
        assert not reduced_wins(cob, ALMOST, sigma)


def test_transfer_completion_only_touches_fresh_observations(ex1):
    base, parity = as_parity(ex1)
    out = positive_parity_to_buchi(base, parity)
    sigma = alternating(base)
    table = sigma.supports
    done = transfer_strategy(out, sigma)
    assert done.memories == table.memories
    assert done.action_support == table.action_support
    extra = set(done.update_support) - set(table.update_support)
    fresh = {out.pomdp.obs_map[s] for s in out.fresh_states().values()}
    assert extra
    assert {o for _, o, _ in extra} <= fresh
    # completed rows keep the memory in place
    for key in extra:
        assert done.update_support[key] == (key[0],)
    # idempotent on strategies already speaking the reduced signature
    again = transfer_strategy(out, done)
    assert again == done
    # and restricting to the base model takes the completion back out
    assert restrict_strategy(base, done) == table


def test_positive_verdicts_transfer_on_random_models():
    rng = random.Random(4002)
    for _ in range(40):
        pomdp = random_pomdp(rng)
        objective = random_parity(rng, pomdp, top=rng.choice((2, 3, 4)))
        out = positive_parity_to_buchi(pomdp, objective)
        sigma = random_strategy(rng, pomdp)
        assert (reduced_wins(out, POSITIVE, sigma)
                == chain_wins(pomdp, objective, POSITIVE, sigma))


def test_almost_verdicts_transfer_on_random_models():
    rng = random.Random(4003)
    for _ in range(40):
        pomdp = random_pomdp(rng)
        objective = random_parity(rng, pomdp, top=rng.choice((2, 3, 4)))
        three = parity_to_three(pomdp, objective)
        cob = almost_parity_to_cobuchi(pomdp, objective)
        sigma = random_strategy(rng, pomdp)
        want = chain_wins(pomdp, objective, ALMOST, sigma)
        assert reduced_wins(three, ALMOST, sigma) == want
        assert reduced_wins(cob, ALMOST, sigma) == want


def test_cobuchi_step_transfers_from_three_priority_models():
    rng = random.Random(4004)
    for _ in range(40):
        pomdp = random_pomdp(rng)
        objective = random_parity(rng, pomdp, top=2)
        out = three_to_cobuchi(pomdp, objective)
        sigma = random_strategy(rng, pomdp)
        assert (reduced_wins(out, ALMOST, sigma)
                == chain_wins(pomdp, objective, ALMOST, sigma))


def test_reduced_signature_strategies_transfer_back():
    """Strategies written for the reduced model win there iff they win on
    the base model (their rows for fresh observations are irrelevant on the
    base side and get dropped)."""
    rng = random.Random(4005)
    for _ in range(25):
        pomdp = random_pomdp(rng)
        objective = random_parity(rng, pomdp, top=rng.choice((2, 3)))
        buchi = positive_parity_to_buchi(pomdp, objective)
        cob = almost_parity_to_cobuchi(pomdp, objective)
        for out, mode, obj in ((buchi, POSITIVE, objective),
                               (cob, ALMOST, objective)):
            sigma_red = random_strategy(rng, out.pomdp)
            back = restrict_strategy(pomdp, sigma_red)
            assert (chain_wins(out.pomdp, out.objective, mode, sigma_red)
                    == chain_wins(pomdp, obj, mode, back))


def test_every_reduction_output_validates(ex1, ex2):
    """The copies of the initial state share its observation, and the
    outputs validate: ``validate`` asks nothing of the initial observation."""
    rng = random.Random(21)
    models = [as_parity(ex1), as_parity(ex2)]
    for _ in range(150):
        pomdp = random_pomdp(rng, max_states=5)
        models.append((pomdp, random_parity(rng, pomdp, top=4)))
    shared = 0
    for pomdp, parity in models:
        three = parity_to_three(pomdp, parity)
        outputs = (positive_parity_to_buchi(pomdp, parity), three,
                   three_to_cobuchi(three.pomdp, three.objective),
                   almost_parity_to_cobuchi(pomdp, parity))
        for out in outputs:
            assert validate(out.pomdp) == []
            init = out.pomdp.obs_map[out.pomdp.initial_state]
            shared += len(out.pomdp.states_with_obs(init)) > 1
    assert shared >= 300
