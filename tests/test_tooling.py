"""The traced benchmark's hooks into the program.

``perfbench/spans.py`` replaces named functions at the layer boundaries
(``BOUNDARIES``, plus ``oracle.enumerate_strategies``).  The benchmark's
own tests live outside ``tests/``, so a renamed or deleted boundary would
break only a traced benchmark run; this test names it here instead.
"""

import importlib.util
from pathlib import Path

from pomparity import oracle

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_name_the_tracer_replaces_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    replaced = [(module, name) for module, name, _ in spans.BOUNDARIES]
    replaced.append((oracle, "enumerate_strategies"))
    missing = [f"{module.__name__}.{name}" for module, name in replaced
               if not callable(getattr(module, name, None))]
    assert missing == []
