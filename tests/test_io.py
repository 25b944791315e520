"""Text formats: parsing, serialization, round-trip stability."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pomparity
from pomparity import (ExactnessError, FiniteMemoryStrategy, Objective,
                       ParseError, load_fixture, objective_as_parity,
                       parse_model, parse_strategy, serialize_model,
                       serialize_strategy, stationary_strategy, uniform)
from pomparity.modelio import fixture_text
from conftest import alternating, random_parity, random_pomdp


MINI = """\
states: s0 s1
actions: a
observations: o0 o1
obs: s0 : o0
obs: s1 : o1
init: s0
trans: s0 a -> s1 1
trans: s1 a -> s1 1
"""


def test_ex1_fixture_is_canonical_and_round_trips():
    text = fixture_text("ex1")
    pomdp, objective = parse_model(text)
    assert serialize_model(pomdp, objective) == text
    again, obj2 = parse_model(serialize_model(pomdp, objective))
    assert again == pomdp and obj2 == objective


def test_ex2_fixture_is_canonical_and_round_trips():
    text = fixture_text("ex2")
    pomdp, objective = parse_model(text)
    assert serialize_model(pomdp, objective) == text


def test_model_without_objective_round_trips():
    pomdp, objective = parse_model(MINI)
    assert objective is None
    assert serialize_model(pomdp) == MINI


def test_weights_parse_as_exact_rationals():
    doc = MINI.replace("trans: s0 a -> s1 1",
                       "trans: s0 a -> s1 0.5, s0 1/2")
    pomdp, _ = parse_model(doc)
    assert pomdp.dist("s0", "a") == {"s1": Fraction(1, 2),
                                     "s0": Fraction(1, 2)}


def test_decimal_weights_failing_to_sum_raise_exactness_error():
    doc = MINI.replace("trans: s0 a -> s1 1", "trans: s0 a -> s1 0.999")
    with pytest.raises(ExactnessError) as err:
        parse_model(doc)
    assert "999/1000" in str(err.value)


def test_weight_errors_name_the_later_line_that_repeats_a_token():
    """Each distinct weight token is parsed once per document, yet an
    error on a later line that repeats a token names that line."""
    halves = MINI.replace("trans: s0 a -> s1 1", "trans: s0 a -> s1 1/2, s0 1/2")
    cases = [
        ("trans: s1 a -> s1 1/2", ExactnessError, "line 8: weights sum to 1/2"),
        ("trans: s1 a -> s1 1/2, s0 -1/2", ParseError,
         "non-positive weight for state 's0' (line 8)"),
        ("trans: s1 a -> s1 1/2, s0 1/0", ParseError,
         "invalid weight '1/0' (line 8, column 27)"),
    ]
    for later, error, message in cases:
        doc = halves.replace("trans: s1 a -> s1 1", later)
        with pytest.raises(error) as err:
            parse_model(doc)
        assert message in str(err.value)
        # the same bad token on the earlier line too: that line reports
        bad = later.split()[-1]
        if error is ParseError:
            doc = doc.replace("s0 1/2\n", f"s0 {bad}\n", 1)
            with pytest.raises(ParseError) as err:
                parse_model(doc)
            assert (err.value.line, str(err.value)) == (
                7, message.replace("line 8", "line 7"))
    strategy = ("memories: m n\ninit: m\nact: m -> a 1/2, b 1/2\n"
                "act: n -> a 1/2, b 1/0\n")
    with pytest.raises(ParseError) as err:
        parse_strategy(strategy)
    assert (err.value.line, err.value.column) == (4, 20)


def test_a_repeated_row_is_parsed_once_into_rows_of_their_own():
    """Rows that repeat a payload share its one parse, never a dict; a
    repeated invalid payload is reported at its first line and column."""
    pomdp, _ = parse_model(MINI)
    assert pomdp.transitions[("s0", "a")] is not pomdp.transitions[("s1", "a")]
    text = ("memories: m n\ninit: m\nact: m -> a 1/2, b 1/2\n"
            "act: n -> a 1/2, b 1/2\nupdate: m o a -> n 1\n"
            "update: m o b -> n 1\nupdate: n o a -> n 1\n")
    sigma = parse_strategy(text)
    rows = [*sigma.action_select.values(), *sigma.memory_update.values()]
    assert len({id(row) for row in rows}) == len(rows) == 5
    assert sigma.action_select["m"] == sigma.action_select["n"]
    for bad, error, where in (("a 1/2, b 1/0", ParseError, (3, 20)),
                              ("a 1/2, a 1/2", ParseError, (3, None)),
                              ("a 1/2, b 1/3", ExactnessError, None)):
        with pytest.raises(error) as err:
            parse_strategy(text.replace("a 1/2, b 1/2", bad))
        if where is None:
            assert str(err.value).startswith("line 3:")
        else:
            assert (err.value.line, err.value.column) == where


def test_invalid_weight_errors_point_at_the_weight():
    """The column of an invalid weight is that of the weight token, also
    when a name earlier on its line is spelled the same."""
    doc = MINI.replace("trans: s0 a -> s1 1", "trans: s a -> abc abc")
    with pytest.raises(ParseError) as err:
        parse_model(doc)
    assert (err.value.line, err.value.column) == (7, 19)
    with pytest.raises(ParseError) as err:
        parse_strategy("memories: m\ninit: m\nact: m -> x x\n")
    assert (err.value.line, err.value.column) == (3, 13)


def test_empty_states_section_errors_at_the_header():
    doc = MINI.replace("states: s0 s1", "states:")
    with pytest.raises(ParseError) as err:
        parse_model(doc)
    assert "states" in str(err.value) and "line 1" in str(err.value)


def test_unknown_identifiers_are_named():
    doc = MINI + "objective: buchi s7\n"
    with pytest.raises(ParseError) as err:
        parse_model(doc)
    assert "s7" in str(err.value)


def test_unknown_keyword_reports_line_number():
    doc = MINI + "frobnicate: yes\n"
    with pytest.raises(ParseError) as err:
        parse_model(doc)
    assert "line 9" in str(err.value)


def test_duplicate_transition_line_is_rejected():
    doc = MINI + "trans: s1 a -> s1 1\n"
    with pytest.raises(ParseError):
        parse_model(doc)


def test_availability_restriction_round_trips():
    doc = (MINI.replace("actions: a", "actions: a b")
           .replace("trans: s1 a -> s1 1",
                    "available: o1 : a\ntrans: s1 a -> s1 1")
           .replace("trans: s0 a -> s1 1",
                    "trans: s0 a -> s1 1\ntrans: s0 b -> s0 1"))
    pomdp, _ = parse_model(doc)
    assert pomdp.available_at("o1") == frozenset({"a"})
    assert pomdp.available_at("o0") == frozenset({"a", "b"})
    text = serialize_model(pomdp)
    again, _ = parse_model(text)
    assert again == pomdp


def test_parity_objective_round_trips():
    doc = MINI + "objective: parity\npriority: s0 1\npriority: s1 2\n"
    pomdp, objective = parse_model(doc)
    assert objective.priority_map == {"s0": 1, "s1": 2}
    text = serialize_model(pomdp, objective)
    _, obj2 = parse_model(text)
    assert obj2 == objective


def test_a_declared_parity_maximum_round_trips(ex1, ex2):
    """A declared maximum, equal to the used one or above it, is written
    as ``objective: parity N`` and read back as the same objective."""
    rng = random.Random(12)
    models = [objective_as_parity(*ex1), objective_as_parity(*ex2)]
    for _ in range(20):
        pomdp = random_pomdp(rng)
        models.append((pomdp, random_parity(rng, pomdp, top=3)))
    for pomdp, parity in models:
        used = max(parity.priority_map.values())
        for top in (used, used + 1, used + 2):
            declared = Objective.parity(parity.priority_map, declared_max=top)
            text = serialize_model(pomdp, declared)
            assert f"\nobjective: parity {top}\n" in text
            again, objective = parse_model(text)
            assert again == pomdp and objective == declared
            assert objective.max_priority == top
            assert serialize_model(again, objective) == text


# -- strategies --

def test_alternating_strategy_round_trips(ex1):
    pomdp, _ = ex1
    sigma = alternating(pomdp)
    text = serialize_strategy(sigma)
    assert parse_strategy(text) == sigma
    assert serialize_strategy(parse_strategy(text)) == text


def test_stationary_strategy_round_trips(ex1):
    pomdp, _ = ex1
    sigma = stationary_strategy(pomdp, ["a"])
    assert parse_strategy(serialize_strategy(sigma)) == sigma.to_strategy()


def test_strategy_with_fractional_weights_round_trips():
    sigma = FiniteMemoryStrategy(
        memories=("m",),
        action_select={"m": {"a": Fraction(1, 3), "b": Fraction(2, 3)}},
        memory_update={("m", "o", "a"): {"m": Fraction(1)},
                       ("m", "o", "b"): {"m": Fraction(1)}},
        initial_memory="m")
    assert parse_strategy(serialize_strategy(sigma)) == sigma


def test_strategy_duplicate_memory_name_is_rejected():
    text = "memories: m m\ninit: m\nact: m -> a 1\n"
    with pytest.raises(ParseError):
        parse_strategy(text)


def test_strategy_unknown_memory_reference_is_rejected():
    text = "memories: m\ninit: m\nact: m -> a 1\nupdate: m o a -> q 1\n"
    with pytest.raises(ParseError) as err:
        parse_strategy(text)
    assert "q" in str(err.value)


@pytest.mark.parametrize("doc, message, line", [
    (MINI + "init: s1\n", "duplicate init line (line 9)", 9),
    (MINI + "available: o1\n",
     "expected 'available: <observation> : <actions>' (line 9)", 9),
    (MINI + "available: o1 : a\navailable: o1 : a\n",
     "duplicate available line for 'o1' (line 10)", 10),
    (MINI + "available: o1 :\n", "empty available set for 'o1' (line 9)", 9),
    (MINI + "trans: s1 a s1 1\n",
     "expected 'trans: <state> <action> -> ...' (line 9)", 9),
    (MINI + "objective: buchi s1\nobjective: buchi s1\n",
     "duplicate objective line (line 10)", 10),
    (MINI + "objective:\n", "empty objective line (line 9)", 9),
    (MINI + "objective: reach\n",
     "reach objective needs target states (line 9)", 9),
    (MINI + "objective: parity 3 4\n",
     "expected 'objective: parity [max]' (line 9)", 9),
    (MINI + "objective: parity x\n", "invalid declared maximum 'x' (line 9)", 9),
    (MINI + "objective: muller\n", "unknown objective kind 'muller' (line 9)", 9),
    (MINI + "priority: s0\n", "expected 'priority: <state> <int>' (line 9)", 9),
    (MINI + "priority: s0 x\n", "invalid priority 'x' (line 9)", 9),
    (MINI + "priority: s0 1\npriority: s0 2\n",
     "duplicate priority for state 's0' (line 10)", 10),
    (MINI.replace("states: s0 s1\n", ""), "missing states section", None),
    (MINI.replace("init: s0\n", ""), "missing init line", None),
    (MINI + "available: o9 : a\n",
     "available line for unknown observation 'o9'", None),
    (MINI + "available: o1 : b\n",
     "available line for 'o1' names unknown action 'b'", None),
    (MINI + "trans: s9 a -> s1 1\n", "transition from unknown state 's9'", None),
    (MINI + "trans: s0 z -> s1 1\n", "transition uses unknown action 'z'", None),
    (MINI.replace("init: s0", "init: s9"), "initial state 's9' is not declared",
     None),
    (MINI + "objective: parity\npriority: s0 1\npriority: s1 1\npriority: s9 1\n",
     "priority for unknown state 's9'", None),
    (MINI + "objective: parity\npriority: s0 1\n",
     "missing priority for states: s1", None),
    (MINI + "priority: s0 1\n", "priority lines without 'objective: parity'",
     None),
])
def test_model_parse_errors_name_their_line(doc, message, line):
    with pytest.raises(ParseError) as err:
        parse_model(doc)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, None)


STRAT = "memories: m\ninit: m\nact: m -> a 1\nupdate: m o1 a -> m 1\n"


@pytest.mark.parametrize("doc, message, line", [
    (STRAT + "belief: m : s0\nsrec: m : s0 : 2\n",
     "expected {...} colour sets, got '2' (line 6)", 6),
    (STRAT + "belief: m : s0\nsrec: m : s0 : {x}\n",
     "invalid colour in '{x}' (line 6)", 6),
    (STRAT + "act: m a 1\n",
     "expected 'act: <memory> -> <action> <w>, ...' (line 5)", 5),
    (STRAT + "update: m o:U a -> m 1\n",
     "invalid observation name 'o:U' (line 5)", 5),
    (STRAT + "update: m o,x a -> m 1\n",
     "invalid observation name 'o,x' (line 5)", 5),
    (STRAT + "update: m o1 a:b -> m 1\n",
     "invalid action name 'a:b' (line 5)", 5),
    (STRAT + "belief: m\n", "expected 'belief: <memory> : <states>' (line 5)", 5),
    (STRAT + "belief: m : s0\nbelief: m : s0\n",
     "duplicate belief line for memory 'm' (line 6)", 6),
    (STRAT + "srec: m : s0\n",
     "expected 'srec: <memory> : <state> : <sets>' (line 5)", 5),
    (STRAT + "srec: m : s0 : {2}\nsrec: m : s0 : {2}\n",
     "duplicate srec line for ('m', 's0') (line 6)", 6),
    ("init: m\n", "missing memories section", None),
    ("memories: m\n", "missing init line", None),
    ("memories: m\ninit: n\n", "initial memory 'n' is not declared", None),
    (STRAT + "act: n -> a 1\n", "act line for unknown memory 'n'", None),
    (STRAT + "update: n o1 a -> m 1\n", "update line for unknown memory 'n'",
     None),
    (STRAT + "belief: n : s0\n", "belief line for unknown memory 'n'", None),
    (STRAT + "brec: m : s0\n", "memory 'm' has element lines but no belief",
     None),
])
def test_strategy_parse_errors_name_their_line(doc, message, line):
    with pytest.raises(ParseError) as err:
        parse_strategy(doc)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, None)


SEEDED = [
    ("parse_model", MINI + "available: o1 : zz1 zz2 zz3 zz4 zz5\n",
     "available line for 'o1' names unknown action 'zz1'"),
    ("parse_strategy", "memories: m1 m2 m3 m4 m5\ninit: m1\n"
     + "".join(f"brec: m{i} : s0\n" for i in range(1, 6)),
     "memory 'm1' has element lines but no belief"),
]


def test_parse_errors_do_not_depend_on_the_hash_seed():
    """A set of unknown actions is named in name order, and memories with
    element lines but no belief in declaration order, under every
    string-hash seed."""
    src = str(Path(pomparity.__file__).resolve().parent.parent)
    script = ("import json, sys; sys.path[:0] = sys.argv[2:]\n"
              "from pomparity import modelio\n"
              "for parse, doc in json.loads(sys.argv[1]):\n"
              "    try: getattr(modelio, parse)(doc)\n"
              "    except modelio.ParseError as err: print(err)\n")
    cases = json.dumps([case[:2] for case in SEEDED])
    for seed in ("0", "1", "2", "3"):
        done = subprocess.run([sys.executable, "-c", script, cases, src],
                              env={**os.environ, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [case[2] for case in SEEDED], seed


def test_strategy_float_free_guarantee():
    sigma = FiniteMemoryStrategy(
        memories=("m",), action_select={"m": uniform(["a", "b", "c"])},
        memory_update={("m", "o", a): {"m": Fraction(1)}
                       for a in ("a", "b", "c")},
        initial_memory="m")
    parsed = parse_strategy(serialize_strategy(sigma))
    for dist in parsed.action_select.values():
        for w in dist.values():
            assert isinstance(w, Fraction)


# -- malformed input --

# Characters that matter to the two formats, plus a few that do not.
TOKEN_CHARS = " \n\t:,->#/.{}0123456789abemos_~"


@st.composite
def mutated(draw, text):
    """``text`` after a few character edits and line copies."""
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("insert", "delete", "replace", "copy line")))
        if op == "copy line":
            lines = text.splitlines(keepends=True)
            line = lines[draw(st.integers(0, len(lines) - 1))]
            lines.insert(draw(st.integers(0, len(lines))), line)
            text = "".join(lines)
            continue
        i = draw(st.integers(0, len(text)))
        piece = ("" if op == "delete"
                 else draw(st.text(TOKEN_CHARS, min_size=1, max_size=3)))
        cut = 0 if op == "insert" else draw(st.integers(1, 3))
        text = text[:i] + piece + text[i + cut:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_malformed_documents_raise_only_documented_errors(data):
    """Mutated models and strategies parse or fail with a named error."""
    model_text = fixture_text("ex1")
    strat_text = serialize_strategy(
        stationary_strategy(load_fixture("ex1")[0], ("a", "b")))
    for parse, text in ((parse_model, model_text),
                        (parse_strategy, strat_text)):
        try:
            parse(data.draw(mutated(text)))
        except (ParseError, ExactnessError):
            pass
