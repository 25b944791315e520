"""End-to-end checks of the command-line surface, driven in-process."""

import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pomparity
from pomparity import cli
from pomparity.cli import cli_main
from pomparity.model import Objective, objective_as_parity
from pomparity.modelio import (fixture_text, load_model_file, parse_model,
                               parse_strategy, save_strategy_file,
                               serialize_model)
from pomparity.strategy import FiniteMemoryStrategy, memory_bound, stationary_strategy

from conftest import (SPLIT_BUDGET_ERROR, SPLIT_MODEL, alternating,
                      random_parity, random_pomdp)


def run(capsys, *argv):
    code = cli_main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fields(line):
    """Split a single key=value record line into a dict."""
    return dict(part.split("=", 1) for part in line.split())


def write_ex1(tmp_path, name="ex1.pomdp"):
    path = tmp_path / name
    path.write_text(fixture_text("ex1"), encoding="utf-8")
    return str(path)


LOSING_MODEL = """\
states: top drop
actions: go
observations: o_top o_drop
obs: top : o_top
obs: drop : o_drop
init: top
trans: top go -> drop 1
trans: drop go -> drop 1
objective: safe top
"""


def test_solve_almost_sure_writes_verifying_witness(tmp_path, capsys):
    model = write_ex1(tmp_path)
    code, out, err = run(capsys, "solve", "--mode", "almost", model)
    assert code == 0
    rec = fields(out.strip())
    assert rec["verdict"] == "yes"
    assert rec["mode"] == "almost"
    assert int(rec["states_constructed"]) > 0
    assert int(rec["fixpoint_iterations"]) >= 1
    assert re.fullmatch(r"\d+\.\d{3}", rec["wall_time_s"])

    witness = str(tmp_path / "ex1.witness.strat")
    assert f"witness: {witness}" in err
    code, out, _ = run(capsys, "verify", model, witness, "--mode", "almost")
    assert code == 0
    assert fields(out.strip())["verdict"] == "yes"


def test_solve_witness_path_derives_from_model_name(tmp_path, capsys):
    model = write_ex1(tmp_path, name="plant.pomdp")
    code, _, _ = run(capsys, "solve", "--mode", "positive", model)
    assert code == 0
    assert (tmp_path / "plant.witness.strat").exists()

    # a model name without the conventional suffix keeps it all
    other = write_ex1(tmp_path, name="plant.model")
    code, _, _ = run(capsys, "solve", "--mode", "positive", other)
    assert code == 0
    assert (tmp_path / "plant.model.witness.strat").exists()


def test_solve_explicit_witness_path(tmp_path, capsys):
    model = write_ex1(tmp_path)
    target = str(tmp_path / "out" / "w.strat")
    (tmp_path / "out").mkdir()
    code, _, err = run(capsys, "solve", "--mode", "almost", model,
                       "--witness", target)
    assert code == 0
    assert f"witness: {target}" in err
    code, _, _ = run(capsys, "verify", model, target, "--mode", "almost")
    assert code == 0


def test_parser_keeps_no_value_between_calls(tmp_path, capsys):
    """The shared parser leaks no option of one call into the next."""
    model = write_ex1(tmp_path)
    target = str(tmp_path / "w.strat")
    code, _, err = run(capsys, "solve", "--mode", "almost", model,
                       "--witness", target, "--budget", "100000")
    assert code == 0 and f"witness: {target}" in err
    code, _, _ = run(capsys, "info", model)
    assert code == 0
    code, _, err = run(capsys, "solve", "--mode", "positive", model)
    assert code == 0
    default = str(tmp_path / "ex1.witness.strat")
    assert f"witness: {default}" in err
    assert (tmp_path / "ex1.witness.strat").exists()


def test_solve_losing_model_exits_one_without_witness(tmp_path, capsys):
    path = tmp_path / "doom.pomdp"
    path.write_text(LOSING_MODEL, encoding="utf-8")
    for mode in ("almost", "positive"):
        code, out, err = run(capsys, "solve", "--mode", mode, str(path))
        assert code == 1
        assert fields(out.strip())["verdict"] == "no"
        assert "witness:" not in err
    assert not (tmp_path / "doom.witness.strat").exists()


def test_solve_budget_exhaustion_exits_two(tmp_path, capsys):
    model = write_ex1(tmp_path)
    code, _, err = run(capsys, "solve", "--mode", "almost", model,
                       "--budget", "2")
    assert code == 2
    assert err.startswith("error: state budget exhausted")


def test_solve_names_a_branch_past_the_budget(tmp_path, capsys):
    model = tmp_path / "split.pomdp"
    model.write_text(SPLIT_MODEL, encoding="utf-8")
    code, out, err = run(capsys, "solve", "--mode", "almost", str(model),
                         "--budget", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: state budget exhausted: {SPLIT_BUDGET_ERROR}\n"


def test_verify_rejects_the_stationary_strategy(tmp_path, capsys):
    model = write_ex1(tmp_path)
    pomdp, _ = load_model_file(model)
    sigma_a = tmp_path / "sigma_a.strat"
    save_strategy_file(sigma_a, stationary_strategy(pomdp, {"a"}))
    code, out, _ = run(capsys, "verify", model, str(sigma_a), "--mode", "almost")
    assert code == 1
    rec = fields(out.strip())
    assert rec["verdict"] == "no"
    assert int(rec["nodes"]) > 0
    assert int(rec["bottom_sccs"]) >= 1


DEAD_END_MODEL = """\
states: s0 g b
actions: a
observations: o0 o1 o2
obs: s0 : o0
obs: g : o1
obs: b : o2
init: s0
trans: s0 a -> g 1
trans: g a -> b 1
trans: b a -> b 1
objective: buchi g
"""

DEAD_END_STRATEGY = """\
memories: m n
init: m
act: m -> a 1
update: m o1 a -> n 1
"""


def test_verify_rejects_a_strategy_that_stops_playing(tmp_path, capsys):
    """Memory n plays nothing, so the pair (g, n) has no successor.  It is
    a bottom class of priority 0, but a stopped play visits g once."""
    model = tmp_path / "dead.pomdp"
    model.write_text(DEAD_END_MODEL, encoding="utf-8")
    strategy = tmp_path / "dead.strat"
    strategy.write_text(DEAD_END_STRATEGY, encoding="utf-8")
    for mode in ("almost", "positive"):
        code, out, _ = run(capsys, "verify", str(model), str(strategy),
                           "--mode", mode)
        assert code == 1
        assert fields(out.strip()) == {"verdict": "no", "mode": mode,
                                       "nodes": "2", "bottom_sccs": "1"}
        code, out, _ = run(capsys, "solve", "--mode", mode, str(model))
        assert (code, fields(out.strip())["verdict"]) == (1, "no")
        code, out, _ = run(capsys, "oracle", str(model), "--mode", mode,
                           "--memory-bound", "2")
        assert (code, fields(out.strip())["verdict"]) == (1, "no")


def test_verify_accepts_the_alternating_strategy(tmp_path, capsys):
    model = write_ex1(tmp_path)
    pomdp, _ = load_model_file(model)
    alt = tmp_path / "alt.strat"
    save_strategy_file(alt, alternating(pomdp))
    code, out, _ = run(capsys, "verify", model, str(alt), "--mode", "almost")
    assert code == 0
    assert fields(out.strip())["verdict"] == "yes"


def test_verify_names_the_strategy_file_on_structural_errors(tmp_path, capsys):
    model = write_ex1(tmp_path)
    bogus = FiniteMemoryStrategy(
        memories=("m",),
        action_select={"m": {"z": Fraction(1)}},
        memory_update={("m", "o_U", "z"): {"m": Fraction(1)}},
        initial_memory="m")
    path = tmp_path / "bogus.strat"
    save_strategy_file(path, bogus)
    code, _, err = run(capsys, "verify", model, str(path), "--mode", "almost")
    assert code == 2
    assert err.startswith("error: ")
    assert "bogus.strat" in err
    assert "z" in err


def test_project_then_verify_round_trip(tmp_path, capsys):
    model = write_ex1(tmp_path)
    pomdp, _ = load_model_file(model)
    alt = tmp_path / "alt.strat"
    save_strategy_file(alt, alternating(pomdp))

    out_path = str(tmp_path / "projected.strat")
    code, out, _ = run(capsys, "project", model, str(alt), "-o", out_path)
    assert code == 0
    rec = fields(out.strip())
    assert rec["output"] == out_path
    assert int(rec["memories"]) >= 1

    code, out, _ = run(capsys, "verify", model, out_path, "--mode", "almost")
    assert code == 0
    assert fields(out.strip())["verdict"] == "yes"


def test_project_stdout_is_a_parseable_strategy(tmp_path, capsys):
    model = write_ex1(tmp_path)
    pomdp, _ = load_model_file(model)
    alt = tmp_path / "alt.strat"
    save_strategy_file(alt, alternating(pomdp))
    code, out, _ = run(capsys, "project", model, str(alt))
    assert code == 0
    projected = parse_strategy(out)
    assert projected.initial_memory in projected.memories


def test_reduce_writes_model_and_origin_table(tmp_path, capsys):
    model = write_ex1(tmp_path)
    out_path = str(tmp_path / "red.pomdp")
    code, out, _ = run(capsys, "reduce", model, "--to", "three", "-o", out_path)
    assert code == 0
    rec = fields(out.strip())
    assert rec["states"] == "14"
    assert rec["output"] == out_path
    assert rec["origins"] == out_path + ".origins"

    reduced, objective = load_model_file(out_path)
    assert objective.kind == "parity"
    assert set(objective.priority_map.values()) <= {0, 1, 2}

    rows = [line.split("\t")
            for line in (tmp_path / "red.pomdp.origins").read_text().splitlines()]
    assert [r[0] for r in rows] == list(reduced.states)
    base_states = {"s0", "X", "X'", "Y", "Y'", "Z", "Z'"}
    for copy in ("0", "1"):
        assert {orig for _, orig, tag in rows if tag == copy} == base_states


def test_reduce_to_buchi_marks_fresh_states(tmp_path, capsys):
    model = write_ex1(tmp_path)
    out_path = str(tmp_path / "buc.pomdp")
    code, out, _ = run(capsys, "reduce", model, "--to", "buchi", "-o", out_path)
    assert code == 0
    assert fields(out.strip())["states"] == "16"
    rows = [line.split("\t")
            for line in (tmp_path / "buc.pomdp.origins").read_text().splitlines()]
    fresh = {tag: new for new, orig, tag in rows if orig == "-"}
    assert set(fresh) == {"initial", "sink"}
    reduced, objective = load_model_file(out_path)
    assert objective.kind == "buchi"
    assert reduced.initial_state == fresh["initial"]


def test_reduce_stdout_mode(tmp_path, capsys):
    model = write_ex1(tmp_path)
    code, out, _ = run(capsys, "reduce", model, "--to", "cobuchi")
    assert code == 0
    reduced, objective = parse_model(out)
    assert objective.kind == "cobuchi"
    assert len(reduced.states) == 15
    # the origin table is only written on request in stdout mode
    assert list(tmp_path.glob("*.origins")) == []

    origins = tmp_path / "table.origins"
    code, _, _ = run(capsys, "reduce", model, "--to", "cobuchi",
                     "--origins", str(origins))
    assert code == 0
    assert origins.exists()


def test_reduce_reads_a_declared_parity_maximum(tmp_path, capsys):
    """``objective: parity N`` in a model file sets the copy count that
    ``reduce`` uses: ex1's priorities top out at 2, which gives two copies
    on every route, and declaring 4 gives three."""
    pomdp, parity = objective_as_parity(*parse_model(fixture_text("ex1")))
    text = serialize_model(pomdp, Objective.parity(parity.priority_map,
                                                   declared_max=4))
    assert "\nobjective: parity 4\n" in text
    model = tmp_path / "ex1.parity4.pomdp"
    model.write_text(text, encoding="utf-8")
    _, declared = parse_model(text)
    n = len(pomdp.states)
    for to, states in (("buchi", 3 * n + 2), ("three", 3 * n),
                       ("cobuchi", 3 * n + 1)):
        code, out, _ = run(capsys, "reduce", str(model), "--to", to)
        assert code == 0
        red = cli._REDUCTIONS[to](pomdp, declared)
        assert out == serialize_model(red.pomdp, red.objective)
        assert len(red.pomdp.states) == states, to


def test_reduce_composes_with_solve(tmp_path, capsys):
    """Reducing to coBüchi and solving the output preserves the verdict."""
    model = write_ex1(tmp_path)
    out_path = str(tmp_path / "red.pomdp")
    code, _, _ = run(capsys, "reduce", model, "--to", "cobuchi", "-o", out_path)
    assert code == 0

    # the reduced initial observation labels one state per copy, and the
    # output still validates: it loads like any other model
    code, out, err = run(capsys, "solve", "--mode", "almost", out_path)
    assert code == 0
    assert fields(out.strip())["verdict"] == "yes"
    assert "warning:" not in err

    witness = str(tmp_path / "red.witness.strat")
    code, _, _ = run(capsys, "verify", out_path, witness, "--mode", "almost")
    assert code == 0


def test_every_reduce_output_passes_info(tmp_path, capsys):
    """``info`` on each ``reduce`` output of both fixtures reports no
    problem, exits 0 and prints the sufficient memory."""
    for fixture in ("ex1", "ex2"):
        model = tmp_path / f"{fixture}.pomdp"
        model.write_text(fixture_text(fixture), encoding="utf-8")
        for target in ("buchi", "three", "cobuchi"):
            out_path = str(tmp_path / f"{fixture}.{target}.pomdp")
            code, _, _ = run(capsys, "reduce", str(model), "--to", target,
                             "-o", out_path)
            assert code == 0
            code, out, _ = run(capsys, "info", out_path)
            assert code == 0, (fixture, target, out)
            assert not any(line.startswith("problem:")
                           for line in out.splitlines())
            assert "sufficient_memory=" in out


def test_oracle_bound_one_fails_and_bound_two_succeeds(tmp_path, capsys):
    model = write_ex1(tmp_path)
    code, out, _ = run(capsys, "oracle", model, "--mode", "almost",
                       "--memory-bound", "1")
    assert code == 1
    rec = fields(out.strip())
    assert rec["verdict"] == "no"
    assert rec["searched_memories"] == "1"
    assert rec["definitive"] == "false"
    assert rec["candidates"] == "3"

    witness = str(tmp_path / "oracle.strat")
    code, out, err = run(capsys, "oracle", model, "--mode", "almost",
                         "--memory-bound", "2", "--witness", witness)
    assert code == 0
    rec = fields(out.strip())
    assert rec["verdict"] == "yes"
    assert rec["definitive"] == "true"
    assert f"witness: {witness}" in err

    code, _, _ = run(capsys, "verify", model, witness, "--mode", "almost")
    assert code == 0


def test_oracle_budget_reports_inconclusive(tmp_path, capsys):
    model = write_ex1(tmp_path)
    code, out, _ = run(capsys, "oracle", model, "--mode", "almost",
                       "--memory-bound", "2", "--budget", "5")
    assert code == 1
    rec = fields(out.strip())
    assert rec["verdict"] == "inconclusive"
    assert rec["definitive"] == "false"
    assert int(rec["candidates"]) <= 5


def test_info_reports_statistics_and_memory_bound(tmp_path, capsys):
    model = write_ex1(tmp_path)
    code, out, _ = run(capsys, "info", model)
    assert code == 0
    lines = out.strip().splitlines()
    rec = fields(lines[0])
    assert rec == {"states": "7", "actions": "2", "observations": "2",
                   "transitions": "28", "objective": "cobuchi"}
    pomdp, objective = load_model_file(model)
    assert fields(lines[1])["sufficient_memory"] == str(memory_bound(pomdp, objective))


def test_info_without_objective(tmp_path, capsys):
    text = fixture_text("ex1")
    stripped = "\n".join(line for line in text.splitlines()
                         if not line.startswith("objective:")) + "\n"
    path = tmp_path / "bare.pomdp"
    path.write_text(stripped, encoding="utf-8")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert fields(lines[0])["objective"] == "none"
    assert len(lines) == 1


def test_info_reports_problems_and_exits_two(tmp_path, capsys):
    path = tmp_path / "dup.pomdp"
    path.write_text("""\
states: s s
actions: a
observations: o
obs: s : o
init: s
trans: s a -> s 1
objective: safe s
""", encoding="utf-8")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 2
    assert any(line.startswith("problem: duplicate state name")
               for line in out.splitlines())
    # the statistics record is still printed, the memory bound is not
    assert "sufficient_memory" not in out


def test_missing_file_exits_two(tmp_path, capsys):
    ghost = str(tmp_path / "ghost.pomdp")
    for argv in (["solve", "--mode", "almost", ghost],
                 ["info", ghost],
                 ["oracle", ghost, "--mode", "almost", "--memory-bound", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: cannot read {ghost}:")


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    path = tmp_path / "broken.pomdp"
    path.write_text("states: s\nbogus: x\n", encoding="utf-8")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2
    assert "bogus" in err and "line 2" in err

    bad_target = fixture_text("ex1").replace(
        "objective: cobuchi X X' Z Z'", "objective: cobuchi NOPE")
    path = tmp_path / "target.pomdp"
    path.write_text(bad_target, encoding="utf-8")
    code, _, err = run(capsys, "solve", "--mode", "almost", str(path))
    assert code == 2
    assert "NOPE" in err and "line" in err


def test_missing_objective_is_an_error_for_solve(tmp_path, capsys):
    text = "\n".join(line for line in fixture_text("ex1").splitlines()
                     if not line.startswith("objective:")) + "\n"
    path = tmp_path / "bare.pomdp"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "solve", "--mode", "almost", str(path))
    assert code == 2
    assert "declares no objective" in err


TWO_STATES = """\
states: s0 s1
actions: a
observations: o0 o1
obs: s0 : o0
obs: s1 : o1
init: s0
"""


@pytest.mark.parametrize("text, problems", [
    (TWO_STATES + "objective: buchi s1\n",
     ["missing transition for state 's0', available action 'a'",
      "missing transition for state 's1', available action 'a'"]),
    (TWO_STATES + "trans: s0 a -> s1 1\ntrans: s1 a -> s1 1\n"
     "objective: parity\npriority: s0 -1\npriority: s1 1\n",
     ["state 's0' has negative priority -1"]),
])
def test_an_invalid_model_aborts_naming_each_problem(tmp_path, capsys, text,
                                                      problems):
    path = tmp_path / "bad.pomdp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "solve", "--mode", "almost", str(path))
    assert (code, out) == (2, "")
    assert err == "error: " + "".join(f"{path}: {p}\n" for p in problems)


def test_reduce_refuses_muller_objectives(tmp_path, capsys, monkeypatch):
    """No model file spells a Muller objective, so one is loaded directly."""
    path = tmp_path / "muller.pomdp"
    path.write_text(TWO_STATES + "trans: s0 a -> s1 1\ntrans: s1 a -> s1 1\n",
                    encoding="utf-8")
    pomdp, _ = parse_model(path.read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "load_model_file", lambda _: (
        pomdp, Objective.muller({"s0": 0, "s1": 1}, [[1]])))
    code, out, err = run(capsys, "reduce", str(path), "--to", "cobuchi")
    assert (code, out, err) == (
        2, "", "error: reduce does not handle Muller objectives\n")


def test_project_names_the_strategy_file_on_structural_errors(tmp_path, capsys):
    model = tmp_path / "model.pomdp"
    model.write_text(TWO_STATES + "trans: s0 a -> s1 1\ntrans: s1 a -> s1 1\n"
                     "objective: buchi s1\n", encoding="utf-8")
    strategy = tmp_path / "bogus.strat"
    strategy.write_text("memories: m\ninit: m\nact: m -> z 1\n"
                        "update: m o1 z -> m 1\n", encoding="utf-8")
    code, out, err = run(capsys, "project", str(model), str(strategy))
    assert (code, out) == (2, "")
    assert err == (f"error: {strategy}: memory 'm' selects unknown action 'z'; "
                   "memory update of 'm' on unknown action 'z'\n")


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    model = write_ex1(tmp_path)
    first = tmp_path / "w1.strat"
    second = tmp_path / "w2.strat"
    for target in (first, second):
        code, _, _ = run(capsys, "solve", "--mode", "almost", model,
                         "--witness", str(target))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()

    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "reduce", model, "--to", "buchi")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_negative_budget_is_a_contract_error(tmp_path, capsys):
    model = write_ex1(tmp_path)
    for mode in ("almost", "positive"):
        code, out, err = run(capsys, "solve", "--mode", mode, model,
                             "--budget", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: state budget must not be negative\n"


def test_positive_budget_bounds_all_roots_together(tmp_path, capsys):
    """ex1 builds 239 states over its roots in positive mode, none over 100."""
    model = write_ex1(tmp_path)
    code, out, err = run(capsys, "solve", "--mode", "positive", model,
                         "--budget", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: state budget exhausted")
    code, out, _ = run(capsys, "solve", "--mode", "positive", model,
                       "--budget", "239")
    assert code == 0
    assert fields(out.strip())["states_constructed"] == "239"


# Recorded outputs: stdout without wall_time_s, and the witness's sha256.
PINNED_OUTPUTS = {
    ("ex1", "almost"): (
        "verdict=yes mode=almost states_constructed=159 fixpoint_iterations=3",
        "0970e93a429977a5dfb86aed727abbc8cb6534617dbcbaa04ef0fc579792de64"),
    ("ex1", "positive"): (
        "verdict=yes mode=positive states_constructed=239 fixpoint_iterations=10",
        "c21858a73c5c10ba2c07205b7ea6744dadfe6b3e81ce8b1969b8fcd2cfbc37ef"),
    ("ex2", "almost"): (
        "verdict=yes mode=almost states_constructed=1595 fixpoint_iterations=5",
        "a4e3020f493a146fcbe9af8252bc3e7e0f93b4bbcd781f7de843576245d8eb98"),
    ("ex2", "positive"): (
        "verdict=yes mode=positive states_constructed=353 fixpoint_iterations=12",
        "c0cf4821d3a2a8cf0ac0c69b6fcc92c18eafb76af003f38a7583ac6397b1cce7"),
}


@pytest.mark.parametrize("name,mode", sorted(PINNED_OUTPUTS))
def test_solve_outputs_match_the_recorded_bytes(tmp_path, capsys, name, mode):
    model = tmp_path / f"{name}.pomdp"
    model.write_text(fixture_text(name), encoding="utf-8")
    witness = tmp_path / "w.strat"
    code, out, _ = run(capsys, "solve", "--mode", mode, str(model),
                       "--witness", str(witness))
    assert code == 0
    record, digest = PINNED_OUTPUTS[(name, mode)]
    assert re.sub(r" wall_time_s=\S+", "", out.strip()) == record
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == digest


# Recorded outputs on the first six models drawn by ``random_pomdp`` and
# ``random_parity(..., top=3)`` from ``random.Random(5)``: the witness of
# (0, almost) and (4, almost) merges several initial moves, on a
# co-Buchi model; (2, almost) does so on a reduced model; (5, positive)
# plays a two-step prefix first.
PINNED_RANDOM = {
    (0, "almost"): (
        "verdict=yes mode=almost states_constructed=73 fixpoint_iterations=2",
        "717cbdfe90ef3ef57ce822349e6e9161d48bcd365f71030455ca7cd39ca4e35a"),
    (0, "positive"): (
        "verdict=yes mode=positive states_constructed=89 fixpoint_iterations=8",
        "0e0a37a37a3505f2af4dc1c830c5c0e5459a15fb7ebd7fc1bac9a53cec581a89"),
    (1, "almost"): (
        "verdict=yes mode=almost states_constructed=681 fixpoint_iterations=4",
        "db4a4d45523899e5519d967ab3e425ae56c4e3b9eb25c32a8abd1dc379125f92"),
    (1, "positive"): (
        "verdict=yes mode=positive states_constructed=215 fixpoint_iterations=5",
        "3115224e9a2856761b581927bffc6680f939cb8cfec3092515e78a567d9b34ed"),
    (2, "almost"): (
        "verdict=yes mode=almost states_constructed=987 fixpoint_iterations=2",
        "64c3c8bd8d6ff52ea59e37bcf6674d6d529060d9f77daf00d15f15b3b626d509"),
    (2, "positive"): (
        "verdict=yes mode=positive states_constructed=83 fixpoint_iterations=7",
        "7768291d241265ae7a0620fe75ece18a5da52040f803b6070cf3b2d7695274da"),
    (3, "almost"): (
        "verdict=no mode=almost states_constructed=160 fixpoint_iterations=5",
        None),
    (3, "positive"): (
        "verdict=no mode=positive states_constructed=254 fixpoint_iterations=22",
        None),
    (4, "almost"): (
        "verdict=yes mode=almost states_constructed=42 fixpoint_iterations=2",
        "07a675c4877db21914921dfcc008c7620b9fa4d3a1b53e13e5c83b70753b4788"),
    (4, "positive"): (
        "verdict=yes mode=positive states_constructed=55 fixpoint_iterations=7",
        "7802f800a44d9993bc0d66478ad9c7c5fa829cb32726f37a8805e8d02b8bbeba"),
    (5, "almost"): (
        "verdict=yes mode=almost states_constructed=1094 fixpoint_iterations=7",
        "9c0aabd8e674c79ed6c76f87fcf17da6a7f50dfe623fe7365f7e5adc3b0453a9"),
    (5, "positive"): (
        "verdict=yes mode=positive states_constructed=164 fixpoint_iterations=5",
        "5a0cd61bbb4f6a80850a1610bf28bb17060518153e56dab610c365021759444a"),
}


@pytest.fixture(scope="module")
def random_models():
    rng = random.Random(5)
    out = []
    for _ in range(6):
        pomdp = random_pomdp(rng)
        out.append(serialize_model(pomdp, random_parity(rng, pomdp, top=3)))
    return out


@pytest.mark.parametrize("index,mode", sorted(PINNED_RANDOM))
def test_random_solve_outputs_match_the_recorded_bytes(
        tmp_path, capsys, random_models, index, mode):
    model = tmp_path / f"r{index}.pomdp"
    model.write_text(random_models[index], encoding="utf-8")
    witness = tmp_path / "w.strat"
    code, out, _ = run(capsys, "solve", "--mode", mode, str(model),
                       "--witness", str(witness))
    record, digest = PINNED_RANDOM[(index, mode)]
    assert re.sub(r" wall_time_s=\S+", "", out.strip()) == record
    assert code == (0 if digest else 1)
    if digest:
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == digest


def ordered_model(s1_first: bool) -> str:
    """Positive Buchi of t, reached only from s1 or s2 (one observation).

    Only t wins almost surely as a root, and the breadth-first path to it
    runs through whichever of s1, s2 is queued first.
    """
    pair = "s1 1/2, s2 1/2" if s1_first else "s2 1/2, s1 1/2"
    return f"""\
states: s0 s1 s2 t bad
actions: a b
observations: o0 o1 o_t o_bad
obs: s0 : o0
obs: s1 : o1
obs: s2 : o1
obs: t : o_t
obs: bad : o_bad
init: s0
trans: s0 a -> {pair}
trans: s0 b -> {pair}
trans: s1 a -> t 1/2, bad 1/2
trans: s1 b -> bad 1
trans: s2 a -> bad 1
trans: s2 b -> bad 1/2, t 1/2
trans: t a -> t 1
trans: t b -> t 1
trans: bad a -> bad 1
trans: bad b -> bad 1
objective: buchi t
"""


def test_positive_witness_ignores_successor_listing_order(tmp_path, capsys):
    witnesses = []
    for s1_first in (True, False):
        model = tmp_path / f"order{int(s1_first)}.pomdp"
        model.write_text(ordered_model(s1_first), encoding="utf-8")
        witness = tmp_path / f"order{int(s1_first)}.strat"
        code, _, _ = run(capsys, "solve", "--mode", "positive", str(model),
                         "--witness", str(witness))
        assert code == 0
        witnesses.append(witness.read_bytes())
    assert witnesses[0] == witnesses[1]


PINNED_REDUCED_EX1 = (
    "verdict=yes mode=almost states_constructed=57158 fixpoint_iterations=7",
    "b533108209abe714bc1c69c90b6203b93cc8a8661cbe2125f6364deeff54b32c")


def test_reduced_ex1_solve_matches_the_recorded_bytes(tmp_path, capsys):
    """The 57,158-state co-Buchi construction of ``ex1`` reduced to co-Buchi."""
    model = write_ex1(tmp_path)
    reduced = str(tmp_path / "ex1.cobuchi.pomdp")
    code, _, _ = run(capsys, "reduce", model, "--to", "cobuchi", "-o", reduced)
    assert code == 0
    witness = tmp_path / "w.strat"
    code, out, _ = run(capsys, "solve", "--mode", "almost", reduced,
                       "--witness", str(witness))
    assert code == 0
    record, digest = PINNED_REDUCED_EX1
    assert re.sub(r" wall_time_s=\S+", "", out.strip()) == record
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == digest


# Recorded ``oracle`` outputs: exit code, stdout record without its wall
# time, and the witness file's digest (None: no witness written).  Models
# are the two fixtures and ``random_pomdp(rng, max_states=3, max_obs=3)``
# draws with ``random_parity(..., top=3)``: the first four of
# ``random.Random(24)`` (r24_0 wins with two memories at candidate 112,
# r24_3 with one memory at candidate 2) and the first of
# ``random.Random(21)``, which exhausts all 9,804 candidates.
PINNED_ORACLE = {
    ("ex1", "almost", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("ex1", "almost", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=94",
        "7ecd96a3eb5a9acaf159cacaece7f4ba935c22aa80187d421567cf801ba601e0"),
    ("ex1", "almost", 2, 5): (
        1, "verdict=inconclusive searched_memories=2 definitive=false candidates=5",
        None),
    ("ex1", "positive", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("ex1", "positive", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=94",
        "7ecd96a3eb5a9acaf159cacaece7f4ba935c22aa80187d421567cf801ba601e0"),
    ("ex2", "almost", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("ex2", "almost", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=814",
        "4f78660e98eb96038c82b9f42e251af1e3e979c873aa2028a8e9b0c00ca3d673"),
    ("ex2", "positive", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("ex2", "positive", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=814",
        "4f78660e98eb96038c82b9f42e251af1e3e979c873aa2028a8e9b0c00ca3d673"),
    ("r24_0", "almost", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("r24_0", "almost", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=112",
        "0988a9c808b89a4a105acde30bb6c304b32f0bd298893b7ed2b1395083e0c243"),
    ("r24_0", "positive", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("r24_0", "positive", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=112",
        "0988a9c808b89a4a105acde30bb6c304b32f0bd298893b7ed2b1395083e0c243"),
    ("r24_3", "almost", 1, None): (
        0, "verdict=yes searched_memories=1 definitive=true candidates=2",
        "445a009e6197eaa5865356994540bb370a2ee6ef0a0ed5d10e719683c22bfc29"),
    ("r24_3", "almost", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=2",
        "445a009e6197eaa5865356994540bb370a2ee6ef0a0ed5d10e719683c22bfc29"),
    ("r24_3", "positive", 1, None): (
        0, "verdict=yes searched_memories=1 definitive=true candidates=2",
        "445a009e6197eaa5865356994540bb370a2ee6ef0a0ed5d10e719683c22bfc29"),
    ("r24_3", "positive", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=2",
        "445a009e6197eaa5865356994540bb370a2ee6ef0a0ed5d10e719683c22bfc29"),
    ("r21_0", "almost", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("r21_0", "almost", 2, None): (
        1, "verdict=no searched_memories=2 definitive=false candidates=9804",
        None),
    ("r21_0", "positive", 1, None): (
        1, "verdict=no searched_memories=1 definitive=false candidates=3",
        None),
    ("r21_0", "positive", 2, None): (
        1, "verdict=no searched_memories=2 definitive=false candidates=9804",
        None),
}


@pytest.fixture(scope="module")
def oracle_models():
    models = {"ex1": fixture_text("ex1"), "ex2": fixture_text("ex2")}
    for seed, count in ((24, 4), (21, 1)):
        rng = random.Random(seed)
        for i in range(count):
            pomdp = random_pomdp(rng, max_states=3, max_obs=3)
            models[f"r{seed}_{i}"] = serialize_model(
                pomdp, random_parity(rng, pomdp, top=3))
    return models


@pytest.mark.parametrize("name,mode,k,budget", sorted(
    PINNED_ORACLE, key=lambda key: (key[0], key[1], key[2], key[3] or 0)))
def test_oracle_outputs_match_the_recorded_bytes(
        tmp_path, capsys, oracle_models, name, mode, k, budget):
    model = tmp_path / f"{name}.pomdp"
    model.write_text(oracle_models[name], encoding="utf-8")
    witness = tmp_path / "w.strat"
    argv = ["oracle", str(model), "--mode", mode, "--memory-bound", str(k),
            "--witness", str(witness)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code, out, _ = run(capsys, *argv)
    expected_code, record, digest = PINNED_ORACLE[(name, mode, k, budget)]
    assert code == expected_code
    assert re.sub(r" wall_time_s=\S+", "", out.strip()) == record
    if digest is None:
        assert not witness.exists()
    else:
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == digest


# More recorded ``oracle`` outputs on ``ex1``, in the same form: its own
# objective at three memories under a budget, and the Muller objective
# ``MULLER_EX1`` ("ex1-muller").  A model file cannot declare a Muller
# objective, so the CLI is handed it in place of the file's own.  Under it
# no two-memory strategy wins almost surely (all 9,804 candidates), nor do
# the first 10,500 candidates of three memories, 696 of which have three;
# positively the two-memory search wins at candidate 94.
MULLER_EX1 = Objective.muller(
    {"s0": 1, "X": 1, "X'": 1, "Y": 2, "Y'": 1, "Z": 1, "Z'": 0},
    [{1}, {0, 2}])

PINNED_ORACLE_MORE = {
    ("ex1", "almost", 3, 2000): (
        0, "verdict=yes searched_memories=3 definitive=true candidates=94",
        "7ecd96a3eb5a9acaf159cacaece7f4ba935c22aa80187d421567cf801ba601e0"),
    ("ex1", "positive", 3, 2000): (
        0, "verdict=yes searched_memories=3 definitive=true candidates=94",
        "7ecd96a3eb5a9acaf159cacaece7f4ba935c22aa80187d421567cf801ba601e0"),
    ("ex1-muller", "almost", 2, None): (
        1, "verdict=no searched_memories=2 definitive=false candidates=9804",
        None),
    ("ex1-muller", "positive", 2, None): (
        0, "verdict=yes searched_memories=2 definitive=true candidates=94",
        "7ecd96a3eb5a9acaf159cacaece7f4ba935c22aa80187d421567cf801ba601e0"),
    ("ex1-muller", "almost", 3, 10500): (
        1, "verdict=inconclusive searched_memories=3 definitive=false "
           "candidates=10500",
        None),
}


@pytest.mark.parametrize("name,mode,k,budget", sorted(
    PINNED_ORACLE_MORE, key=lambda key: (key[0], key[1], key[2])))
def test_more_oracle_outputs_match_the_recorded_bytes(
        tmp_path, capsys, monkeypatch, name, mode, k, budget):
    model = write_ex1(tmp_path)
    if name == "ex1-muller":
        load = cli._load_model
        monkeypatch.setattr(cli, "_load_model",
                            lambda path: (load(path)[0], MULLER_EX1))
    witness = tmp_path / "w.strat"
    argv = ["oracle", model, "--mode", mode, "--memory-bound", str(k),
            "--witness", str(witness)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code, out, _ = run(capsys, *argv)
    expected_code, record, digest = PINNED_ORACLE_MORE[(name, mode, k, budget)]
    assert code == expected_code
    assert re.sub(r" wall_time_s=\S+", "", out.strip()) == record
    if digest is None:
        assert not witness.exists()
    else:
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == digest


def test_oracle_jobs_leaves_the_search_as_it_is(tmp_path, capsys):
    """``--jobs J`` is accepted and ignored: every J prints the recorded
    record and witness, and the budget caps the candidates; J = 0 is
    refused before any search."""
    model = write_ex1(tmp_path)
    argv = ["oracle", model, "--mode", "almost", "--memory-bound", "2"]
    expected_code, record, digest = PINNED_ORACLE[("ex1", "almost", 2, None)]
    for jobs in ("1", "2", "5"):
        witness = tmp_path / f"w{jobs}.strat"
        code, out, _ = run(capsys, *argv, "--jobs", jobs,
                           "--witness", str(witness))
        assert code == expected_code
        assert re.sub(r" wall_time_s=\S+", "", out.strip()) == record
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == digest

    code, out, _ = run(capsys, *argv, "--budget", "50", "--jobs", "3")
    assert code == 1
    rec = fields(out.strip())
    assert (rec["verdict"], rec["candidates"]) == ("inconclusive", "50")

    witness = tmp_path / "w0.strat"
    code, out, err = run(capsys, *argv, "--jobs", "0",
                         "--witness", str(witness))
    assert (code, out, err) == (2, "", "error: jobs must be at least 1\n")
    assert not witness.exists()


def checkout_run(tmp_path, *argv, hash_seed=None):
    """``python *argv`` with this source checkout on the path."""
    src = str(Path(pomparity.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def run_module(tmp_path, *argv, hash_seed=None):
    """``python -m pomparity`` on ``argv`` from a source checkout."""
    return checkout_run(tmp_path, "-m", "pomparity", *argv,
                        hash_seed=hash_seed)


def test_the_cli_loads_no_process_pool(tmp_path):
    """Every search runs in the calling process: a fresh interpreter that
    imports the CLI has loaded neither pool module."""
    probe = ("import sys, pomparity.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = checkout_run(tmp_path, "-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_package_runs_as_a_module(tmp_path):
    """``python -m pomparity`` from a source checkout is the CLI."""
    model = write_ex1(tmp_path)
    witness = tmp_path / "w.strat"
    done = run_module(tmp_path, "solve", "--mode", "almost", model,
                      "--witness", str(witness))
    assert done.returncode == 0, done.stderr
    record, digest = PINNED_OUTPUTS[("ex1", "almost")]
    assert re.sub(r" wall_time_s=\S+", "", done.stdout.strip()) == record
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == digest


def test_the_module_entry_point_is_cli_main(tmp_path, capsys):
    """``python -m pomparity`` exits with ``cli_main``'s code and prints its
    output: a valid model (0), a missing one (2, on stderr only) and one
    with a problem (2)."""
    bad = tmp_path / "bad.pomdp"
    bad.write_text(fixture_text("ex1").replace("init: s0", "init: ghost"),
                   encoding="utf-8")
    cases = ((write_ex1(tmp_path), 0), (str(tmp_path / "ghost.pomdp"), 2),
             (str(bad), 2))
    for path, code in cases:
        done = run_module(tmp_path, "info", path)
        assert (done.returncode, done.stdout, done.stderr) == \
            run(capsys, "info", path)
        assert done.returncode == code


def test_solve_outputs_do_not_depend_on_the_hash_seed(tmp_path, capsys):
    """The recorded solve outputs under two string-hash seeds: no order of
    a set or dict of names reaches a verdict, a count or a witness byte."""
    cases = []
    for (name, mode), pinned in sorted(PINNED_OUTPUTS.items()):
        model = tmp_path / f"{name}.pomdp"
        model.write_text(fixture_text(name), encoding="utf-8")
        cases.append((str(model), mode, pinned))
    reduced = str(tmp_path / "ex1.cobuchi.pomdp")
    code, _, _ = run(capsys, "reduce", cases[0][0], "--to", "cobuchi",
                     "-o", reduced)
    assert code == 0
    cases.append((reduced, "almost", PINNED_REDUCED_EX1))
    witness = tmp_path / "w.strat"
    for seed in ("0", "1"):
        for model, mode, (record, digest) in cases:
            done = run_module(tmp_path, "solve", "--mode", mode, model,
                              "--witness", str(witness), hash_seed=seed)
            assert done.returncode == 0, done.stderr
            assert re.sub(r" wall_time_s=\S+", "", done.stdout.strip()) == \
                record, (seed, model, mode)
            assert hashlib.sha256(witness.read_bytes()).hexdigest() == \
                digest, (seed, model, mode)


# Recorded ``project`` outputs: the sha256 of the projection, on stdout, of
# each witness that ``PINNED_OUTPUTS`` pins.
PINNED_PROJECTIONS = {
    ("ex1", "almost"):
        "9a50464a3dd9cb02792ec8ccb1d45a63e869df562890cabbb5f432859485f64d",
    ("ex1", "positive"):
        "00e2dcf9dcf4c0cf18f30e8331441bbaa107b8ad5ebbb71057e30346512e22dc",
    ("ex2", "almost"):
        "e09e13c3e7da782f86a836320b0bc36a2b94f4e472465a004c181e595e531435",
    ("ex2", "positive"):
        "aa11e631569e05b899efb4d3b3cf51bfce0883f123fe3375405013966f2c68ec",
}

# Recorded ``reduce`` outputs: the sha256 of the reduced model, on stdout,
# and of its origin table.
PINNED_REDUCTIONS = {
    ("ex1", "buchi"): (
        "5fc69702201c2fa2baeb4a4e8cb7e1e850bf722d9971ec317833831e778e5059",
        "8ccd50447b8804ec1c29577939be7c1e9a3edb6f928ad55dcc5167d13481b193"),
    ("ex1", "three"): (
        "67c495e70f5c9fa6fb94863a3fdd48bdb5caf9a65794f87eb7ed5f5a63b93af9",
        "fb2d3a4c36b6894bbaf4e99570b6747bdc1a4906f21eec1702e7851d1a8ebb0b"),
    ("ex1", "cobuchi"): (
        "88602a2d904794ad68cca88d24103932f738ff15cd4a51ff4acdc89a6cdb1551",
        "05b1e65d871e62372fd352d48bba30143c39549aceb0410452b45d5ab01eaa0a"),
    ("ex2", "buchi"): (
        "2291571efab67395f6c02531ac864021f37ba026c270a9d2a2b6952d4ab05ed1",
        "d16416fa92a222c7f6b3fc4699f398cca09aef381b14e2438a08066bb6836288"),
    ("ex2", "three"): (
        "c2367cdc12c526a5d91e4a7a4e14db5dd7a968d4946c18db6ccceee03604c883",
        "27f459485b2b760ce8684c686d5d43aace7c8173caee8c58dc3d3a21c1cf307e"),
    ("ex2", "cobuchi"): (
        "f618bce8e650220e4854fb002a31b97c1a83e698e966b8fdda56530f77a81e49",
        "ba5d896321a81333f9f9ce9e5cc7cdb47910491dead397283cbb6b2e286e5fc9"),
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def project_and_reduce_digests(tmp_path, cli):
    """Digests of every pinned projection and reduction, in the pins'
    shape; ``cli(*argv)`` runs the command line and returns stdout."""
    projections, reductions = {}, {}
    origins = tmp_path / "origins.txt"
    for name in ("ex1", "ex2"):
        model = tmp_path / f"{name}.pomdp"
        model.write_text(fixture_text(name), encoding="utf-8")
        for mode in ("almost", "positive"):
            witness = tmp_path / f"{name}.{mode}.strat"
            cli("solve", "--mode", mode, str(model), "--witness", str(witness))
            projections[(name, mode)] = sha256(
                cli("project", str(model), str(witness)))
        for to in ("buchi", "three", "cobuchi"):
            text = cli("reduce", str(model), "--to", to,
                       "--origins", str(origins))
            reductions[(name, to)] = (
                sha256(text),
                hashlib.sha256(origins.read_bytes()).hexdigest())
    return projections, reductions


def test_project_and_reduce_outputs_match_the_recorded_bytes(tmp_path, capsys):
    def cli(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        return out

    assert project_and_reduce_digests(tmp_path, cli) == (
        PINNED_PROJECTIONS, PINNED_REDUCTIONS)


def test_project_and_reduce_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    for seed in ("0", "1"):
        def cli(*argv):
            done = run_module(tmp_path, *argv, hash_seed=seed)
            assert done.returncode == 0, (seed, argv, done.stderr)
            return done.stdout

        assert project_and_reduce_digests(tmp_path, cli) == (
            PINNED_PROJECTIONS, PINNED_REDUCTIONS), seed


# Recorded ``verify`` outputs, keyed (model, solve mode, witness or its
# projection, verify mode): the models of ``PINNED_OUTPUTS``,
# ``PINNED_RANDOM`` and ``PINNED_REDUCED_EX1``.
PINNED_VERIFY = {
    ('ex1', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=19 bottom_sccs=2',
    ('ex1', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=19 bottom_sccs=2',
    ('ex1', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=43 bottom_sccs=2',
    ('ex1', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=43 bottom_sccs=2',
    ('ex1', 'positive', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=13 bottom_sccs=2',
    ('ex1', 'positive', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=13 bottom_sccs=2',
    ('ex1', 'positive', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=13 bottom_sccs=2',
    ('ex1', 'positive', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=13 bottom_sccs=2',
    ('ex1.cobuchi', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=39 bottom_sccs=3',
    ('ex1.cobuchi', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=39 bottom_sccs=3',
    ('ex1.cobuchi', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=1071 bottom_sccs=3',
    ('ex1.cobuchi', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=1071 bottom_sccs=3',
    ('ex2', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=20 bottom_sccs=2',
    ('ex2', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=20 bottom_sccs=2',
    ('ex2', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=92 bottom_sccs=2',
    ('ex2', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=92 bottom_sccs=2',
    ('ex2', 'positive', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=13 bottom_sccs=2',
    ('ex2', 'positive', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=13 bottom_sccs=2',
    ('ex2', 'positive', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=13 bottom_sccs=2',
    ('ex2', 'positive', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=13 bottom_sccs=2',
    ('r0', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=8 bottom_sccs=1',
    ('r0', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=8 bottom_sccs=1',
    ('r0', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=22 bottom_sccs=3',
    ('r0', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=22 bottom_sccs=3',
    ('r0', 'positive', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=2 bottom_sccs=1',
    ('r0', 'positive', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=2 bottom_sccs=1',
    ('r0', 'positive', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=2 bottom_sccs=1',
    ('r0', 'positive', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=2 bottom_sccs=1',
    ('r1', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=64 bottom_sccs=1',
    ('r1', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=64 bottom_sccs=1',
    ('r1', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=38 bottom_sccs=1',
    ('r1', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=38 bottom_sccs=1',
    ('r1', 'positive', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=32 bottom_sccs=1',
    ('r1', 'positive', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=32 bottom_sccs=1',
    ('r1', 'positive', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=17 bottom_sccs=1',
    ('r1', 'positive', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=17 bottom_sccs=1',
    ('r2', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=10 bottom_sccs=1',
    ('r2', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=10 bottom_sccs=1',
    ('r2', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=115 bottom_sccs=1',
    ('r2', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=115 bottom_sccs=1',
    ('r2', 'positive', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=11 bottom_sccs=1',
    ('r2', 'positive', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=11 bottom_sccs=1',
    ('r2', 'positive', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=9 bottom_sccs=1',
    ('r2', 'positive', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=9 bottom_sccs=1',
    ('r4', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=4 bottom_sccs=1',
    ('r4', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=4 bottom_sccs=1',
    ('r4', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=7 bottom_sccs=1',
    ('r4', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=7 bottom_sccs=1',
    ('r4', 'positive', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=4 bottom_sccs=1',
    ('r4', 'positive', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=4 bottom_sccs=1',
    ('r4', 'positive', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=4 bottom_sccs=1',
    ('r4', 'positive', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=4 bottom_sccs=1',
    ('r5', 'almost', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=30 bottom_sccs=1',
    ('r5', 'almost', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=30 bottom_sccs=1',
    ('r5', 'almost', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=23 bottom_sccs=1',
    ('r5', 'almost', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=23 bottom_sccs=1',
    ('r5', 'positive', 'projection', 'almost'):
        'verdict=yes mode=almost nodes=31 bottom_sccs=1',
    ('r5', 'positive', 'projection', 'positive'):
        'verdict=yes mode=positive nodes=31 bottom_sccs=1',
    ('r5', 'positive', 'witness', 'almost'):
        'verdict=yes mode=almost nodes=15 bottom_sccs=1',
    ('r5', 'positive', 'witness', 'positive'):
        'verdict=yes mode=positive nodes=15 bottom_sccs=1',
}


def verify_outputs(tmp_path, capsys, models):
    """``verify`` stdout, in both modes, of the witness that ``solve``
    writes for each (model, mode) and of that witness's projection."""
    outputs = {}
    for name, text, modes in models:
        model = tmp_path / f"{name}.pomdp"
        model.write_text(text, encoding="utf-8")
        for mode in modes:
            witness = tmp_path / f"{name}.{mode}.strat"
            projected = tmp_path / f"{name}.{mode}.proj.strat"
            if run(capsys, "solve", "--mode", mode, str(model),
                   "--witness", str(witness))[0]:
                continue
            assert run(capsys, "project", str(model), str(witness),
                       "-o", str(projected))[0] == 0
            for kind, path in (("witness", witness), ("projection", projected)):
                for check in ("almost", "positive"):
                    code, out, _ = run(capsys, "verify", str(model), str(path),
                                       "--mode", check)
                    assert code == (0 if out.startswith("verdict=yes") else 1)
                    outputs[(name, mode, kind, check)] = out.strip()
    return outputs


def test_verify_outputs_match_the_recorded_bytes(tmp_path, capsys,
                                                 random_models):
    """The pair and recurrent-class counts ``verify`` prints for every
    witness the solve pins record and for its projection."""
    reduced = tmp_path / "ex1.cobuchi.pomdp"
    assert run(capsys, "reduce", write_ex1(tmp_path), "--to", "cobuchi",
               "-o", str(reduced))[0] == 0
    models = [(name, fixture_text(name), ("almost", "positive"))
              for name in ("ex1", "ex2")]
    models += [(f"r{i}", text, ("almost", "positive"))
               for i, text in enumerate(random_models)]
    models.append(("ex1.cobuchi", reduced.read_text(encoding="utf-8"),
                   ("almost",)))
    assert verify_outputs(tmp_path, capsys, models) == PINNED_VERIFY


def test_unwritable_outputs_exit_two(tmp_path, capsys):
    """An output path that cannot be written is an error naming the path,
    with exit 2, not a traceback whose exit 1 reads as "no"."""
    model = write_ex1(tmp_path)
    ghost = str(tmp_path / "missing" / "out")
    for argv in (["solve", "--mode", "almost", model, "--witness", ghost],
                 ["oracle", model, "--mode", "almost", "--memory-bound", "2",
                  "--witness", ghost],
                 ["reduce", model, "--to", "buchi", "-o", ghost]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"error: cannot write {ghost}:"), err
