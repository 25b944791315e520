"""The benchmark's workloads: inputs, timed passes and output checks.

Every operation calls ``pomparity.cli.cli_main(argv)`` in-process on
generated files, exactly as ``pomparity solve|project|verify|oracle|reduce``
would run.  A workload has three parts:

* ``prepare`` writes the inputs (untimed set-up: generation, file writes,
  and for ``cobuchi_construct`` the ``reduce`` step);
* ``run_pass`` performs the workload's fixed work once and is timed;
* ``check_witnesses`` verifies the witnesses the pass wrote, outside the
  timed region.

Verdicts are compared with ``verdicts.json``, recorded from the program
at the commit that defined the benchmark.  Model structures come from
fixed family seeds and only names and probabilities come from the run's
seed (see ``gen``), so the table holds for every seed.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from gen import draw_structure, render
from pomparity import cli

HERE = Path(__file__).resolve().parent


@dataclass
class Call:
    argv: list[str]
    code: int
    out: str
    seconds: float


def call(argv: list[str]) -> Call:
    """Run one CLI command in-process, capturing what it prints."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.cli_main(argv)
    return Call(argv, code, out.getvalue(), time.perf_counter() - start)


def field_of(text: str, key: str) -> str:
    match = re.search(rf"\b{key}=(\S+)", text)
    return match.group(1) if match else ""


def memories_in(path: Path) -> int:
    """Memory count of a written ``.strat`` file."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("memories:"):
            return len(line.split()) - 1
    return 0


class Ledger:
    """Counts attempted and failed operations and names every failure."""

    def __init__(self, table: dict[str, str]):
        self.table = table
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, c: Call, ok_codes: tuple[int, ...] = (0,),
           key: str | None = None) -> bool:
        """Count one call; it fails on an unexpected exit or a wrong verdict."""
        self.attempted += 1
        problem = None
        if c.code not in ok_codes:
            problem = f"exit {c.code}"
        elif key is not None:
            verdict = field_of(c.out, "verdict")
            expected = self.table.get(key)
            if verdict != expected:
                problem = f"verdict {verdict!r}, recorded {expected!r}"
        if problem is None:
            return True
        self.failed += 1
        self.problems.append(f"{' '.join(c.argv)}: {problem}")
        return False

    def verify(self, model: Path, strategy: Path, mode: str) -> bool:
        """A written strategy must pass ``verify`` (exit 0) in its mode."""
        return self.op(call(["verify", str(model), str(strategy),
                             "--mode", mode]))


@dataclass
class PassResult:
    """One pass of the fixed work; ``latencies`` has one entry per timed
    operation (the solves, or the oracle searches)."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    candidates: int = 0
    states_constructed: int = 0

    def timed_op(self, ledger: Ledger, argv: list[str], key: str) -> Call | None:
        """Run and check an operation whose latency is reported."""
        c = call(argv)
        self.latencies.append(c.seconds)
        return c if ledger.op(c, ok_codes=(0, 1), key=key) else None


@dataclass
class Prepared:
    workdir: Path
    models: list[tuple[str, Path, str]]          # (id, file, mode)
    witnesses: dict[str, Path] = field(default_factory=dict)


def _family(seed: int, count: int, **sizes) -> list:
    rng = random.Random(seed)
    return [draw_structure(rng, **sizes) for _ in range(count)]


def _write_family(workdir: Path, seed: int, prefix: str, structures,
                  modes) -> list[tuple[str, Path, str]]:
    """Render each structure with the run seed; return them in seeded order."""
    rng = random.Random(seed)
    models = []
    for i, (structure, mode) in enumerate(zip(structures, modes)):
        path = workdir / f"{prefix}{i:02d}.pomdp"
        path.write_text(render(structure, rng), encoding="utf-8")
        models.append((f"{prefix}{i:02d}", path, mode))
    rng.shuffle(models)
    return models


# -- cobuchi_construct ---------------------------------------------------------

class CobuchiConstruct:
    """One huge coBüchi-mode belief-observation construction.

    Why: ``solve --mode almost`` on ``ex1`` after ``reduce --to cobuchi``
    is one huge coBüchi-mode construction (57,158 states, a 285-memory
    witness) plus the safety fixpoint; ``chain`` and ``oracle`` do almost
    nothing.  It is the workload the integer support kernel and the lean
    construction target.  The model is fixed; the seed does not change it.
    The smoke size solves a small model of the ``solve_mix`` family.
    """

    name = "cobuchi_construct"
    why = ("ex1 reduced to coBuchi: one huge belief-observation "
           "construction (57,158 states) plus the safety fixpoint; "
           "chain and oracle nearly idle")

    def prepare(self, workdir: Path, seed: int, smoke: bool,
                ledger: Ledger | None) -> Prepared:
        if smoke:
            structure = SolveMix.structures(smoke=True)[0]
            text, model_id = render(structure, random.Random(seed)), "mix00"
        else:
            text = (HERE / "ex1.pomdp").read_text(encoding="utf-8")
            model_id = "ex1"
        source = workdir / f"{model_id}.pomdp"
        source.write_text(text, encoding="utf-8")
        reduced = workdir / f"{model_id}.cobuchi.pomdp"
        c = call(["reduce", str(source), "--to", "cobuchi", "-o", str(reduced)])
        if ledger is not None:
            ledger.op(c)
        return Prepared(workdir, [(model_id, reduced, "almost")])

    def run_pass(self, prep: Prepared, ledger: Ledger, jobs: int) -> PassResult:
        (model_id, path, mode), = prep.models
        witness = prep.workdir / f"{model_id}.witness.strat"
        result = PassResult()
        start = time.perf_counter()
        c = result.timed_op(ledger, ["solve", str(path), "--mode", mode,
                                     "--witness", str(witness)],
                            key=f"{self.name}/{model_id}/{mode}")
        result.wall = time.perf_counter() - start
        if c is not None and c.code == 0:
            prep.witnesses[f"{model_id}/{mode}"] = witness
            result.states_constructed = int(field_of(c.out, "states_constructed"))
        return result


# -- solve_mix -----------------------------------------------------------------

class SolveMix:
    """Many small random models, solved in both modes, then projected.

    Why: 2-5 states, 2 actions, 2-3 observations (the initial state
    observes alone) and priorities 0..3, so ``reductions`` (parity to
    coBüchi, parity to Büchi) run in front of every solve.  The positive
    mode's per-root loop runs many small Büchi-mode constructions.
    Per-call overhead (parse, validate, reductions) sets the median; the
    few instances with thousands of constructed states set the tail.  It
    is the only workload that exercises ``project`` and the full product
    graph: every "yes" witness is projected and the projection verified.

    Size: the first 40 structures of the family (80 solves).  The family
    draw at this size spans 10 ms to 3 s per solve; larger families
    include single models that take 15 s.
    """

    name = "solve_mix"
    why = ("40 random 2-5 state parity models solved in both modes, "
           "witnesses projected and verified: per-call overhead, "
           "reductions, many small constructions")
    FAMILY_SEED = 1309
    SIZE, SMOKE_SIZE = 40, 3

    @classmethod
    def structures(cls, smoke: bool):
        return _family(cls.FAMILY_SEED, cls.SMOKE_SIZE if smoke else cls.SIZE,
                       min_states=2, max_states=5, min_obs=2, max_obs=3)

    def prepare(self, workdir: Path, seed: int, smoke: bool,
                ledger: Ledger | None) -> Prepared:
        structures = self.structures(smoke)
        models = _write_family(workdir, seed, "mix", structures,
                               [None] * len(structures))
        return Prepared(workdir, models)

    def run_pass(self, prep: Prepared, ledger: Ledger, jobs: int) -> PassResult:
        result = PassResult()
        start = time.perf_counter()
        for model_id, path, _ in prep.models:
            for mode in ("almost", "positive"):
                witness = prep.workdir / f"{model_id}.{mode}.strat"
                c = result.timed_op(ledger, ["solve", str(path), "--mode", mode,
                                             "--witness", str(witness)],
                                    key=f"{self.name}/{model_id}/{mode}")
                if c is None:
                    continue
                result.states_constructed += int(field_of(c.out, "states_constructed"))
                if c.code != 0:
                    continue
                prep.witnesses[f"{model_id}/{mode}"] = witness
                projected = prep.workdir / f"{model_id}.{mode}.proj.strat"
                p = call(["project", str(path), str(witness),
                          "-o", str(projected)])
                if ledger.op(p):
                    ledger.verify(path, projected, mode)
        result.wall = time.perf_counter() - start
        return result


# -- oracle_sweep --------------------------------------------------------------

class OracleSweep:
    """Bounded brute-force searches: tiny product chains, no construction.

    Why: 40 random models with exactly 2 observations, 3-6 states and
    priorities 0..3, searched with ``oracle --memory-bound 2`` in
    alternating modes.  A fifth of the searches exhaust the 9,804
    candidates; the time goes into tens of thousands of tiny product
    chains plus bottom-SCC evaluation, with no belief construction at
    all.  The end-to-end run uses ``--jobs 1``; the traced run also times
    the program's only parallel path, ``--jobs 2`` on two cores, on the same
    searches (``oracle.jobs2_speedup``).
    """

    name = "oracle_sweep"
    why = ("40 random 2-observation models searched by oracle at memory "
           "bound 2: tens of thousands of tiny product chains, no belief "
           "construction; traced run adds --jobs 2")
    FAMILY_SEED = 2802
    SIZE, SMOKE_SIZE = 40, 4

    def prepare(self, workdir: Path, seed: int, smoke: bool,
                ledger: Ledger | None) -> Prepared:
        structures = _family(self.FAMILY_SEED,
                             self.SMOKE_SIZE if smoke else self.SIZE,
                             min_states=3, max_states=6, min_obs=2, max_obs=2)
        modes = [("almost", "positive")[i % 2] for i in range(len(structures))]
        return Prepared(workdir, _write_family(workdir, seed, "orc",
                                               structures, modes))

    def run_pass(self, prep: Prepared, ledger: Ledger, jobs: int) -> PassResult:
        result = PassResult()
        start = time.perf_counter()
        for model_id, path, mode in prep.models:
            witness = prep.workdir / f"{model_id}.oracle.strat"
            c = result.timed_op(ledger, ["oracle", str(path), "--mode", mode,
                                         "--memory-bound", "2", "--jobs", str(jobs),
                                         "--witness", str(witness)],
                                key=f"{self.name}/{model_id}/{mode}")
            if c is None:
                continue
            result.candidates += int(field_of(c.out, "candidates"))
            if c.code == 0:
                prep.witnesses[f"{model_id}/{mode}"] = witness
        result.wall = time.perf_counter() - start
        return result


def check_witnesses(prep: Prepared, ledger: Ledger) -> None:
    """Every "yes" witness must win on its model in its mode."""
    paths = {model_id: path for model_id, path, _ in prep.models}
    for key, witness in sorted(prep.witnesses.items()):
        model_id, mode = key.split("/")
        ledger.verify(paths[model_id], witness, mode)


WORKLOADS = {w.name: w for w in (CobuchiConstruct(), SolveMix(), OracleSweep())}

