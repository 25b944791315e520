"""The traced benchmark's hooks into the program.

``perfbench/spans.py`` replaces named functions at the layer boundaries
(``BOUNDARIES``, plus ``oracle.enumerate_strategies``).  The benchmark's
own tests live outside ``tests/``, so a renamed or deleted boundary would
break only a traced benchmark run; this test names it here instead.
"""

import importlib.util
import re
from pathlib import Path

from pomparity import oracle
from pomparity.cli import cli_main
from pomparity.modelio import fixture_text

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_tracer_replaces_exists():
    spans = load_spans()
    replaced = [(module, name) for module, name, _ in spans.BOUNDARIES]
    replaced.append((oracle, "enumerate_strategies"))
    missing = [f"{module.__name__}.{name}" for module, name in replaced
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_the_tracer_counts_every_layer_it_reads(tmp_path, capsys):
    """The counts the tracer reads off results (a rewrite's playable
    ``pomdp``, a chain's ``nodes``, a decision's diagnostics, a projected
    strategy, an oracle result) on one pass of the commands on ``ex1``;
    ``project`` reads its summaries through ``compute_rec_functions``.
    The rewrites' states add up to the ``states_constructed=`` the solves
    print."""
    model = tmp_path / "ex1.pomdp"
    model.write_text(fixture_text("ex1"), encoding="utf-8")
    witness = str(tmp_path / "w.strat")
    projected = str(tmp_path / "p.strat")
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        codes = [cli_main(argv) for argv in (
            ["solve", "--mode", "positive", str(model)],
            ["solve", "--mode", "almost", str(model), "--witness", witness],
            ["verify", str(model), witness, "--mode", "almost"],
            ["project", str(model), witness, "-o", projected],
            ["oracle", str(model), "--mode", "almost", "--memory-bound", "1"])]
    finally:
        tracer.uninstall()
    printed = re.findall(r"\bstates_constructed=(\d+)", capsys.readouterr().out)
    assert codes == [0, 0, 0, 0, 1]
    counts = tracer.counts
    assert counts["beliefobs.states"] == sum(map(int, printed))
    for metric in ("beliefobs.states", "chain.nodes",
                   "solve.fixpoint_iterations", "strategy.memories_out",
                   "oracle.candidates"):
        assert counts[metric] > 0, metric
    spans = tracer.span_counts()
    assert spans["strategy.project"] >= 1 and spans["chain.rec"] >= 1
