"""Command-line front end for the solver and its companion tools.

Subcommands: solve (decide a winning mode, write a witness), verify
(evaluate a strategy file on its product chain), project (collapse a
strategy onto its recurrence classes), reduce (rewrite a parity model
into a simpler objective), oracle (bounded brute-force search), and
info (validation plus statistics).

Exit codes: 0 for yes/success, 1 for a no or inconclusive verdict,
2 for malformed inputs, an unwritable output or exhausted resources.

Every subcommand but info loads a model one way: it validates the model
and its objective, and any problem aborts.  info prints the problems
instead.  The output of reduce validates like any other model.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .chain import (build_product_chain, evaluable_objective,
                    evaluate_qualitative, objective_colors)
from .model import (MULLER, ContractError, ExactnessError, Objective,
                    ParseError, Pomdp, ResourceLimitError, StructuralError,
                    WinningMode, objective_as_parity, validate,
                    validate_objective)
from .modelio import (load_model_file, load_strategy_file,
                      save_strategy_file, serialize_model,
                      serialize_strategy)
from .oracle import oracle_decide
from .reductions import (ReductionOutput, almost_parity_to_cobuchi,
                         parity_to_three, positive_parity_to_buchi)
from .solve import DEFAULT_STATE_BUDGET, solve_parity_fm
from .strategy import memory_bound, project_strategy

_MODES = {"almost": WinningMode.ALMOST_SURE, "positive": WinningMode.POSITIVE}

_REDUCTIONS = {
    "buchi": positive_parity_to_buchi,
    "three": parity_to_three,
    "cobuchi": almost_parity_to_cobuchi,
}


class CliError(Exception):
    pass


def _read(load, path: str):
    """``load(path)``, with read and parse errors worded as CLI errors."""
    try:
        return load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (ParseError, ExactnessError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_model(path: str) -> tuple[Pomdp, Objective]:
    """A valid model and its valid objective; any problem aborts."""
    pomdp, objective = _read(load_model_file, path)
    problems = validate(pomdp)
    if not problems and objective is not None:
        problems = validate_objective(pomdp, objective)
    if problems:
        raise CliError("\n".join(f"{path}: {p}" for p in problems))
    if objective is None:
        raise CliError(f"{path}: the model file declares no objective")
    return pomdp, objective


def _record(**fields) -> str:
    return " ".join(f"{k}={v}" for k, v in fields.items())


def _save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write(save, path: str, content) -> None:
    """``save(path, content)``, with write errors worded as CLI errors."""
    try:
        save(path, content)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_solve(args) -> int:
    pomdp, objective = _load_model(args.model)
    mode = _MODES[args.mode]
    started = time.perf_counter()
    try:
        decision = solve_parity_fm(pomdp, objective, mode, budget=args.budget)
    except ResourceLimitError as exc:
        raise CliError(f"state budget exhausted: {exc}") from None
    wall = time.perf_counter() - started
    diag = decision.diagnostics
    iterations = (diag.get("safety_iterations", 0)
                  + diag.get("buchi_outer_iterations", 0))
    print(_record(verdict=decision.verdict, mode=args.mode,
                  states_constructed=diag.get("states_constructed", 0),
                  fixpoint_iterations=iterations,
                  wall_time_s=f"{wall:.3f}"))
    if decision.winning:
        witness_path = args.witness
        if witness_path is None:
            base = args.model
            if base.endswith(".pomdp"):
                base = base[:-len(".pomdp")]
            witness_path = base + ".witness.strat"
        _write(save_strategy_file, witness_path, decision.witness)
        print(f"witness: {witness_path}", file=sys.stderr)
        return 0
    return 1


def _cmd_verify(args) -> int:
    pomdp, objective = _load_model(args.model)
    strategy = _read(load_strategy_file, args.strategy)
    mode = _MODES[args.mode]
    base, evaluable = evaluable_objective(pomdp, objective)
    try:
        chain = build_product_chain(base, strategy)
    except StructuralError as exc:
        raise CliError(f"{args.strategy}: {exc}") from None
    winning = evaluate_qualitative(chain, evaluable, mode)
    nodes, bottom_sccs = chain.counts
    print(_record(verdict="yes" if winning else "no", mode=args.mode,
                  nodes=nodes, bottom_sccs=bottom_sccs))
    return 0 if winning else 1


def _cmd_project(args) -> int:
    pomdp, objective = _load_model(args.model)
    strategy = _read(load_strategy_file, args.strategy)
    base, evaluable = evaluable_objective(pomdp, objective)
    try:
        projected = project_strategy(base, strategy,
                                     objective_colors(evaluable))
    except StructuralError as exc:
        raise CliError(f"{args.strategy}: {exc}") from None
    text = serialize_strategy(projected)
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write(_save_text, args.output, text)
        print(_record(memories=len(projected.memories), output=args.output))
    return 0


def _cmd_reduce(args) -> int:
    pomdp, objective = _load_model(args.model)
    if objective.kind == MULLER:
        raise CliError("reduce does not handle Muller objectives")
    base, parity = objective_as_parity(pomdp, objective)
    red: ReductionOutput = _REDUCTIONS[args.to](base, parity)
    text = serialize_model(red.pomdp, red.objective)
    origin_lines = []
    for new in red.pomdp.states:
        orig, tag = red.state_origin[new]
        origin_lines.append(f"{new}\t{'-' if orig is None else orig}\t{tag}")
    origins_text = "\n".join(origin_lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        if args.origins is not None:
            _write(_save_text, args.origins, origins_text)
    else:
        _write(_save_text, args.output, text)
        origins_path = args.origins
        if origins_path is None:
            origins_path = args.output + ".origins"
        _write(_save_text, origins_path, origins_text)
        print(_record(states=len(red.pomdp.states), output=args.output,
                      origins=origins_path))
    return 0


def _cmd_oracle(args) -> int:
    pomdp, objective = _load_model(args.model)
    mode = _MODES[args.mode]
    if args.jobs < 1:
        raise CliError("jobs must be at least 1")
    started = time.perf_counter()
    result = oracle_decide(pomdp, objective, mode, args.memory_bound,
                           budget=args.budget)
    wall = time.perf_counter() - started
    print(_record(verdict=result.verdict,
                  searched_memories=result.searched_memories,
                  definitive=str(result.definitive).lower(),
                  candidates=result.candidates,
                  wall_time_s=f"{wall:.3f}"))
    if result.verdict == "yes":
        if args.witness is not None:
            _write(save_strategy_file, args.witness, result.witness)
            print(f"witness: {args.witness}", file=sys.stderr)
        return 0
    return 1


def _cmd_info(args) -> int:
    pomdp, objective = _read(load_model_file, args.model)
    problems = validate(pomdp)
    if objective is not None:
        problems += validate_objective(pomdp, objective)
    for p in problems:
        print(f"problem: {p}")
    transitions = sum(len(d) for d in pomdp.transitions.values())
    print(_record(states=len(pomdp.states), actions=len(pomdp.actions),
                  observations=len(pomdp.observations),
                  transitions=transitions,
                  objective="none" if objective is None else objective.kind))
    if objective is not None and not problems:
        print(_record(sufficient_memory=memory_bound(pomdp, objective)))
    return 2 if problems else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``cli_main`` call; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="pomparity",
        description="Qualitative finite-memory analysis of POMDPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide a winning mode, write a witness")
    p.add_argument("model", help="model file (.pomdp) with an objective block")
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET,
                   help="constructed-state budget (default: %(default)s)")
    p.add_argument("--witness", metavar="PATH",
                   help="witness output path (default: MODEL.witness.strat)")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="evaluate a strategy on the product chain")
    p.add_argument("model")
    p.add_argument("strategy", help="strategy file (.strat)")
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("project", help="project a strategy onto recurrence classes")
    p.add_argument("model")
    p.add_argument("strategy")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the projected strategy here instead of stdout")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("reduce", help="rewrite parity into a simpler objective")
    p.add_argument("model")
    p.add_argument("--to", choices=sorted(_REDUCTIONS), required=True,
                   help="buchi: positive-mode parity to Büchi; three: parity "
                        "to priorities {0,1,2}; cobuchi: almost-sure parity "
                        "to coBüchi")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the reduced model here instead of stdout")
    p.add_argument("--origins", metavar="PATH",
                   help="state-origin table path (default: OUTPUT.origins)")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force search over support strategies")
    p.add_argument("model")
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--memory-bound", type=int, required=True, metavar="K",
                   help="search strategies with at most K memories")
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help="stop after N candidates and report inconclusive")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="ignored, the search runs in one process; J must "
                        "be at least 1 (to be removed once perfbench stops "
                        "passing it)")
    p.add_argument("--witness", metavar="PATH",
                   help="save the first winning strategy here")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("info", help="validate a model and print statistics")
    p.add_argument("model")
    p.set_defaults(handler=_cmd_info)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, ContractError, StructuralError,
            ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
