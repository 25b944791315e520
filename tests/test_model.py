"""Model types: validation, belief updates, objective conversion."""

import random
from fractions import Fraction

import pytest

from pomparity import (ContractError, ExactnessError, Objective, ParseError,
                       Pomdp, StructuralError, UnsupportedConversionError,
                       WinningMode, belief_update, load_fixture,
                       make_absorbing, objective_as_parity,
                       parity_to_three, positive_parity_to_buchi,
                       serialize_model, serialize_strategy,
                       solve_parity_fm, stationary_strategy,
                       three_to_cobuchi, validate, validate_objective)
from pomparity.chain import objective_colors
from pomparity.strategy import SupportStrategy
from conftest import random_pomdp


def tiny(transitions=None, **kw):
    base = dict(
        states=("s0", "s1"), actions=("a",), observations=("o0", "o1"),
        obs_map={"s0": "o0", "s1": "o1"},
        transitions=transitions or {
            ("s0", "a"): {"s1": Fraction(1)},
            ("s1", "a"): {"s1": Fraction(1)},
        },
        initial_state="s0")
    base.update(kw)
    return Pomdp(**base)


def test_fixture_ex1_validates_cleanly(ex1):
    pomdp, _ = ex1
    assert validate(pomdp) == []


def test_fixture_ex2_validates_cleanly(ex2):
    pomdp, _ = ex2
    assert validate(pomdp) == []


def test_half_weight_row_names_the_pair():
    p = tiny(transitions={
        ("s0", "a"): {"s1": Fraction(1, 2)},
        ("s1", "a"): {"s1": Fraction(1)},
    })
    report = validate(p)
    assert any("'s0'" in line and "'a'" in line and "1/2" in line
               for line in report)


def test_shared_initial_observation_validates():
    # every analysis starts at the initial state, not at its observation
    # class; test_solve.py::test_a_shared_initial_observation_keeps_verdicts
    # checks the solver and the oracle on such models
    p = tiny(obs_map={"s0": "o0", "s1": "o0"}, observations=("o0",))
    assert validate(p) == []


def test_float_weight_is_rejected_at_construction():
    with pytest.raises(ExactnessError):
        tiny(transitions={
            ("s0", "a"): {"s1": 0.5, "s0": 0.5},
            ("s1", "a"): {"s1": 1},
        })


def test_unavailable_action_with_transition_row_is_flagged():
    p = tiny(available={"o1": frozenset()})
    report = validate(p)
    assert any("allows no actions" in line for line in report)


def test_objective_validation_catches_unknown_targets(ex1):
    pomdp, _ = ex1
    bad = Objective.buchi({"nope"})
    assert validate_objective(pomdp, bad)
    good = Objective.buchi({"X"})
    assert validate_objective(pomdp, good) == []


ONE = Fraction(1)
ROWS = {("s0", "a"): {"s1": ONE}, ("s1", "a"): {"s1": ONE}}


@pytest.mark.parametrize("change, report", [
    (dict(states=()),
     ["no states declared", "observation map mentions unknown state 's0'",
      "observation map mentions unknown state 's1'",
      "observation 'o0' labels no state", "observation 'o1' labels no state",
      "initial state 's0' is not a declared state",
      "transition from unknown state 's0'", "transition from unknown state 's1'"]),
    (dict(obs_map={"s0": "o0"}),
     ["state 's1' has no observation", "observation 'o1' labels no state"]),
    (dict(obs_map={"s0": "o0", "s1": "o9"}),
     ["state 's1' is mapped to unknown observation 'o9'",
      "observation 'o1' labels no state"]),
    (dict(obs_map={"s0": "o0", "s1": "o1", "s9": "o1"}),
     ["observation map mentions unknown state 's9'"]),
    (dict(observations=("o0", "o1", "o2")), ["observation 'o2' labels no state"]),
    (dict(initial_state="s9"), ["initial state 's9' is not a declared state"]),
    (dict(available={"o9": frozenset({"a"})}),
     ["available-action entry for unknown observation 'o9'"]),
    (dict(available={"o1": frozenset({"a", "b"})}),
     ["available-action entry for 'o1' names unknown action 'b'"]),
    (dict(transitions={**ROWS, ("s9", "a"): {"s1": ONE}}),
     ["transition from unknown state 's9'"]),
    (dict(transitions={**ROWS, ("s0", "b"): {"s1": ONE}}),
     ["transition from 's0' uses unknown action 'b'"]),
    (dict(transitions={**ROWS, ("s0", "a"): {"s9": ONE}}),
     ["transition 's0'/'a' targets unknown state 's9'"]),
    (dict(transitions={**ROWS, ("s0", "a"): {"s1": ONE, "s0": Fraction(0)}}),
     ["transition 's0'/'a' -> 's0' has non-positive weight 0"]),
    (dict(transitions={("s0", "a"): {"s1": ONE}}),
     ["missing transition for state 's1', available action 'a'"]),
])
def test_validation_names_each_structural_problem(change, report):
    assert validate(tiny(**change)) == report


@pytest.mark.parametrize("objective, report", [
    (Objective.buchi(()), ["objective has an empty target set"]),
    (Objective.parity({"s0": 1}), ["state 's1' has no priority"]),
    (Objective.parity({"s0": 1, "s1": 1, "s9": 1}),
     ["priority assigned to unknown state 's9'"]),
    (Objective.parity({"s0": -1, "s1": 1}),
     ["state 's0' has negative priority -1"]),
    (Objective.parity({"s0": 3, "s1": 1}, declared_max=2),
     ["state 's0' has priority above the declared maximum 2"]),
    (Objective.muller({"s0": 0}, [[0]]), ["state 's1' has no color"]),
    (Objective.muller({"s0": 0, "s1": 0, "s9": 1}, [[0]]),
     ["color assigned to unknown state 's9'"]),
    (Objective.muller({"s0": 0, "s1": 0}, [[0, 5]]),
     ["accepting set uses undeclared color 5"]),
    (Objective("frob"), ["unknown objective kind 'frob'"]),
])
def test_objective_validation_names_each_problem(objective, report):
    assert validate_objective(tiny(), objective) == report


# -- belief updates --

def test_belief_update_keeps_full_class_on_ex1(ex1):
    pomdp, _ = ex1
    u = frozenset({"X", "X'", "Y", "Y'", "Z", "Z'"})
    for a in ("a", "b"):
        assert belief_update(pomdp, u, a, "o_U") == u


def test_belief_update_self_loop_fixed_point():
    p = tiny()
    assert belief_update(p, {"s1"}, "a", "o1") == frozenset({"s1"})


def test_belief_update_can_be_empty():
    p = tiny()
    assert belief_update(p, {"s0"}, "a", "o0") == frozenset()


def test_belief_update_matches_direct_enumeration():
    rng = random.Random(4021)
    for _ in range(60):
        pomdp = random_pomdp(rng)
        states = list(pomdp.states)
        belief = frozenset(rng.sample(states, rng.randint(1, len(states))))
        # restrict to one observation class, as the operation requires
        o = pomdp.obs_map[next(iter(belief))]
        belief = frozenset(s for s in belief if pomdp.obs_map[s] == o)
        a = rng.choice(pomdp.actions)
        o2 = rng.choice(pomdp.observations)
        expected = frozenset(
            t for s in belief for t in pomdp.supp(s, a)
            if pomdp.obs_map[t] == o2)
        assert belief_update(pomdp, belief, a, o2) == expected


def test_belief_update_is_monotone():
    rng = random.Random(4022)
    for _ in range(60):
        pomdp = random_pomdp(rng)
        o = rng.choice(pomdp.observations)
        cls = list(pomdp.states_with_obs(o))
        small = frozenset(rng.sample(cls, rng.randint(1, len(cls))))
        big = small | frozenset(rng.sample(cls, rng.randint(1, len(cls))))
        a = rng.choice(pomdp.actions)
        o2 = rng.choice(pomdp.observations)
        assert belief_update(pomdp, small, a, o2) <= belief_update(pomdp, big, a, o2)


# -- objective conversion --

def test_cobuchi_conversion_priorities_on_ex1(ex1):
    pomdp, objective = ex1
    base, parity = objective_as_parity(pomdp, objective)
    pm = parity.priority_map
    assert base is pomdp
    for s in ("X", "X'", "Z", "Z'"):
        assert pm[s] == 2
    assert pm["Y"] == 1 and pm["Y'"] == 1


def test_parity_conversion_is_identity(ex1):
    pomdp, _ = ex1
    parity = Objective.parity({s: 1 for s in pomdp.states})
    assert objective_as_parity(pomdp, parity) == (pomdp, parity)


def test_empty_buchi_target_gives_all_odd():
    p = tiny()
    _, parity = objective_as_parity(p, Objective.buchi(set()))
    assert set(parity.priority_map.values()) == {1}


def test_reach_conversion_makes_targets_absorbing():
    p = tiny()
    base, parity = objective_as_parity(p, Objective.reach({"s1"}))
    assert base.dist("s1", "a") == {"s1": Fraction(1)}
    assert parity.priority_map == {"s0": 1, "s1": 0}


def test_safe_conversion_absorbs_the_complement():
    p = tiny(transitions={
        ("s0", "a"): {"s0": Fraction(1, 2), "s1": Fraction(1, 2)},
        ("s1", "a"): {"s0": Fraction(1)},
    })
    base, parity = objective_as_parity(p, Objective.safe({"s0"}))
    assert base.dist("s1", "a") == {"s1": Fraction(1)}
    assert parity.priority_map == {"s0": 2, "s1": 1}


def test_muller_conversion_is_refused():
    p = tiny()
    muller = Objective.muller({"s0": 0, "s1": 1}, [{0}])
    with pytest.raises(UnsupportedConversionError):
        objective_as_parity(p, muller)


def test_make_absorbing_only_touches_targets(ex2):
    pomdp, _ = ex2
    fixed = make_absorbing(pomdp, {"B"})
    assert fixed.dist("B", "a") == {"B": Fraction(1)}
    assert fixed.dist("B", "b") == {"B": Fraction(1)}
    for s in pomdp.states:
        if s == "B":
            continue
        for a in pomdp.actions:
            assert fixed.dist(s, a) == pomdp.dist(s, a)


EX1, EX1_OBJECTIVE = load_fixture("ex1")
ONLY_INIT = Objective.parity({"s0": 0})
UNPRIORITIZED = "parity objective assigns no priority to: X, X', Y, Y', Z, Z'"


@pytest.mark.parametrize("call, error, text", [
    (lambda: belief_update(EX1, [], "a", "o_U"), ContractError,
     "belief update from an empty belief"),
    (lambda: belief_update(EX1, ["s0", "X"], "a", "o_U"), ContractError,
     "belief mixes observations: o_U, o_init"),
    (lambda: belief_update(EX1, ["s0"], "zz", "o_U"), ContractError,
     "action 'zz' is unavailable at observation 'o_init'"),
    (lambda: belief_update(EX1, ["s0"], "a", "nope"), StructuralError,
     "unknown observation 'nope'"),
    (lambda: objective_as_parity(EX1, Objective("bogus")), ContractError,
     "unknown objective kind 'bogus'"),
    (lambda: objective_colors(Objective.buchi({"X"})), ContractError,
     "chain evaluation needs a parity or Muller objective, got buchi"),
    (lambda: Objective.buchi({"X"}).max_priority, ContractError,
     "max_priority undefined for buchi objective"),
    (lambda: positive_parity_to_buchi(EX1, ONLY_INIT), ContractError,
     UNPRIORITIZED),
    (lambda: parity_to_three(EX1, ONLY_INIT), ContractError, UNPRIORITIZED),
    (lambda: three_to_cobuchi(EX1, ONLY_INIT), ContractError, UNPRIORITIZED),
    (lambda: stationary_strategy(EX1, ["a", "zz"]), StructuralError,
     "unknown actions: zz"),
    (lambda: solve_parity_fm(EX1, EX1_OBJECTIVE, "almost"), ContractError,
     "unsupported winning mode 'almost'"),
    (lambda: serialize_model(EX1, Objective.muller(
        {s: 0 for s in EX1.states}, [{0}])), ParseError,
     "objective kind 'muller' has no text form"),
])
def test_contract_errors_name_what_is_wrong(call, error, text):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == text


def test_strategy_text_skips_update_rows_with_empty_support():
    """An update row with an empty support (its memory stops) writes no
    ``update:`` line; the other rows are written as usual."""
    table = SupportStrategy(("m",), {"m": ("a",)},
                            {("m", "o_U", "a"): (), ("m", "o_init", "a"): ("m",)},
                            "m")
    assert serialize_strategy(table) == (
        "memories: m\ninit: m\nact: m -> a 1\n"
        "update: m o_init a -> m 1\n")
