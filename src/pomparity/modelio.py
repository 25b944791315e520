"""Text formats for models (.pomdp) and strategies (.strat).

Both formats are line-oriented, UTF-8, LF, with '#' comments.  Names may
use any characters except whitespace, ':', ',' and '#'.  Weights are exact:
fractions like ``1/6``, integers, or decimal literals (``0.5`` means the
rational 1/2, not a binary float).  Serialization is canonical — fixed
section order, fixed whitespace, successors in state order — so that
parse/serialize round-trips are byte-identical on canonical documents and
two equal models always serialize to identical bytes.

Model document sections::

    states: s0 X
    actions: a b
    observations: o_init o_U
    obs: s0 : o_init
    init: s0
    available: o_U : a b          # only for proper restrictions
    trans: s0 a -> X 1/2, s0 1/2
    objective: cobuchi X          # reach|safe|buchi|cobuchi + targets
    objective: parity [max]       # followed by priority lines
    priority: s0 1

Strategy documents::

    memories: v0 v1
    init: v0
    act: v0 -> a 1
    update: v0 o_U a -> v1 1
    belief: v0 : X                # optional memory-element annotations
    brec: v0 : X
    srec: v0 : X : {2} {1 2}
"""

from __future__ import annotations

import importlib.resources
import math
import re
from fractions import Fraction
from pathlib import Path

from .model import (_TARGET_KINDS, PARITY, ExactnessError, Objective,
                    ParseError, Pomdp)
from .strategy import FiniteMemoryStrategy, MemoryElement, SupportStrategy

_NAME_RE = re.compile(r"^[^\s:,#]+$")
_SECTIONS = ("states", "actions", "observations")


def _check_name(token: str, what: str, line_no: int) -> str:
    if not _NAME_RE.match(token):
        raise ParseError(f"invalid {what} name {token!r}", line=line_no)
    return token


def _parse_weight(token: str, line_no: int, column: int,
                  weights: dict) -> Fraction:
    """The weight a token spells, parsed once per document into ``weights``."""
    w = weights.get(token)
    if w is not None:
        return w
    try:
        w = weights[token] = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid weight {token!r}", line=line_no,
                         column=column) from None
    return w


def _parse_weighted(payload: str, line_no: int, line: str, what: str,
                    weights: dict) -> tuple[dict[str, Fraction], tuple[str, ...]]:
    """Parse ``name w, name w, ...`` and insist the weights sum to one.

    Returns the row and its support, the names in sorted order (every
    weight is positive).  Memoized in ``weights`` under (what, payload):
    every check reads the payload alone, so an invalid one raises, with
    its line and column, on the first line that spells it; only valid
    ones are kept, each row gets its own copy, and rows that spell the
    same payload share one support tuple.
    """
    memo = weights.get((what, payload))
    if memo is not None:
        return dict(memo[0]), memo[1]
    dist = {}
    column = len(line) - len(payload) + 1  # the payload ends the line
    for part in payload.split(","):
        tokens = part.split()
        if len(tokens) != 2:
            raise ParseError(f"expected '<{what}> <weight>' pairs, got {part.strip()!r}",
                             line=line_no)
        name = _check_name(tokens[0], what, line_no)
        w = _parse_weight(tokens[1], line_no, column + part.rindex(tokens[1]),
                          weights)
        if name in dist:
            raise ParseError(f"duplicate {what} {name!r} in one distribution",
                             line=line_no)
        if w.numerator <= 0:  # a Fraction's sign is its numerator's
            raise ParseError(f"non-positive weight for {what} {name!r}", line=line_no)
        dist[name] = w
        column += len(part) + 1
    lcm = math.lcm(*[w.denominator for w in dist.values()])  # exact, in ints
    if sum([w.numerator * (lcm // w.denominator) for w in dist.values()]) != lcm:
        raise ExactnessError(
            f"line {line_no}: weights sum to {sum(dist.values())}, not 1")
    weights[(what, payload)] = memo = dist, tuple(sorted(dist))
    return dict(dist), memo[1]


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        keyword, colon, payload = line.partition(":")
        if not colon:
            raise ParseError(f"expected '<keyword>: ...', got {line.strip()!r}", line=i)
        yield i, keyword.strip(), payload.strip(), line


# -- models --

def parse_model(text: str) -> tuple[Pomdp, Objective | None]:
    """Parse a model document; the objective may be absent."""
    sections: dict[str, tuple[str, ...]] = {}  # keyword -> its names
    obs_map: dict[str, str] = {}
    initial: str | None = None
    available: dict[str, frozenset[str]] = {}
    transitions: dict[tuple[str, str], dict[str, Fraction]] = {}
    objective_kind: str | None = None
    objective_targets: list[str] = []
    declared_max: int | None = None
    priorities: dict[str, int] = {}
    obj_line = 0
    weights: dict = {}  # weight tokens and weighted payloads, parsed once

    for line_no, keyword, payload, line in _lines(text):
        if keyword in _SECTIONS:
            names = tuple(_check_name(t, keyword[:-1], line_no)
                          for t in payload.split())
            if not names:
                raise ParseError(f"empty {keyword} section", line=line_no)
            if keyword in sections:
                raise ParseError(f"duplicate {keyword} section", line=line_no)
            sections[keyword] = names
        elif keyword == "obs":
            parts = [p.strip() for p in payload.split(":")]
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError("expected 'obs: <state> : <observation>'", line=line_no)
            s, o = parts
            if s in obs_map:
                raise ParseError(f"duplicate observation for state {s!r}", line=line_no)
            obs_map[s] = o
        elif keyword == "init":
            if initial is not None:
                raise ParseError("duplicate init line", line=line_no)
            initial = _check_name(payload, "state", line_no)
        elif keyword == "available":
            parts = payload.split(":")
            if len(parts) != 2:
                raise ParseError("expected 'available: <observation> : <actions>'",
                                 line=line_no)
            o = _check_name(parts[0].strip(), "observation", line_no)
            if o in available:
                raise ParseError(f"duplicate available line for {o!r}", line=line_no)
            acts = frozenset(_check_name(t, "action", line_no)
                             for t in parts[1].split())
            if not acts:
                raise ParseError(f"empty available set for {o!r}", line=line_no)
            available[o] = acts
        elif keyword == "trans":
            if "->" not in payload:
                raise ParseError("expected 'trans: <state> <action> -> ...'", line=line_no)
            head, rest = payload.split("->", 1)
            head_tokens = head.split()
            if len(head_tokens) != 2:
                raise ParseError("expected '<state> <action>' before '->'", line=line_no)
            s = _check_name(head_tokens[0], "state", line_no)
            a = _check_name(head_tokens[1], "action", line_no)
            if (s, a) in transitions:
                raise ParseError(f"duplicate transition line for {s!r}/{a!r}",
                                 line=line_no)
            transitions[(s, a)] = _parse_weighted(rest, line_no, line, "state",
                                                     weights)[0]
        elif keyword == "objective":
            if objective_kind is not None:
                raise ParseError("duplicate objective line", line=line_no)
            tokens = payload.split()
            if not tokens:
                raise ParseError("empty objective line", line=line_no)
            objective_kind = tokens[0]
            obj_line = line_no
            if objective_kind in _TARGET_KINDS:
                if len(tokens) < 2:
                    raise ParseError(f"{objective_kind} objective needs target states",
                                     line=line_no)
                objective_targets = [_check_name(t, "state", line_no)
                                     for t in tokens[1:]]
            elif objective_kind == PARITY:
                if len(tokens) > 2:
                    raise ParseError("expected 'objective: parity [max]'", line=line_no)
                if len(tokens) == 2:
                    try:
                        declared_max = int(tokens[1])
                    except ValueError:
                        raise ParseError(f"invalid declared maximum {tokens[1]!r}",
                                         line=line_no) from None
            else:
                raise ParseError(f"unknown objective kind {objective_kind!r}",
                                 line=line_no)
        elif keyword == "priority":
            tokens = payload.split()
            if len(tokens) != 2:
                raise ParseError("expected 'priority: <state> <int>'", line=line_no)
            s = _check_name(tokens[0], "state", line_no)
            try:
                p = int(tokens[1])
            except ValueError:
                raise ParseError(f"invalid priority {tokens[1]!r}", line=line_no) from None
            if s in priorities:
                raise ParseError(f"duplicate priority for state {s!r}", line=line_no)
            priorities[s] = p
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=line_no)

    for name in _SECTIONS:
        if name not in sections:
            raise ParseError(f"missing {name} section")
    states, actions, observations = map(sections.__getitem__, _SECTIONS)
    if initial is None:
        raise ParseError("missing init line")
    state_set = set(states)
    action_set = set(actions)
    obs_set = set(observations)
    for s, o in obs_map.items():
        if s not in state_set:
            raise ParseError(f"obs line for unknown state {s!r}")
        if o not in obs_set:
            raise ParseError(f"state {s!r} mapped to unknown observation {o!r}")
    for o in available:
        if o not in obs_set:
            raise ParseError(f"available line for unknown observation {o!r}")
        for a in available[o]:
            if a not in action_set:
                raise ParseError(f"available line for {o!r} names unknown action {a!r}")
    for (s, a), dist in transitions.items():
        if s not in state_set:
            raise ParseError(f"transition from unknown state {s!r}")
        if a not in action_set:
            raise ParseError(f"transition uses unknown action {a!r}")
        for t in dist:
            if t not in state_set:
                raise ParseError(f"transition targets unknown state {t!r}")
    if initial not in state_set:
        raise ParseError(f"initial state {initial!r} is not declared")

    pomdp = Pomdp(states=states, actions=actions, observations=observations,
                  obs_map=obs_map, transitions=transitions,
                  initial_state=initial, available=available)

    objective: Objective | None = None
    if objective_kind in _TARGET_KINDS:
        unknown = sorted(set(objective_targets) - state_set)
        if unknown:
            raise ParseError(f"objective targets unknown states: {', '.join(unknown)}",
                             line=obj_line)
        objective = Objective(objective_kind, targets=frozenset(objective_targets))
    elif objective_kind == PARITY:
        for s in priorities:
            if s not in state_set:
                raise ParseError(f"priority for unknown state {s!r}")
        missing = sorted(state_set - set(priorities))
        if missing:
            raise ParseError(f"missing priority for states: {', '.join(missing)}")
        objective = Objective.parity(priorities, declared_max=declared_max)
    elif priorities:
        raise ParseError("priority lines without 'objective: parity'")
    return pomdp, objective


def serialize_model(pomdp: Pomdp, objective: Objective | None = None) -> str:
    """Canonical text form of a model (and objective, when given)."""
    out = [f"states: {' '.join(pomdp.states)}",
           f"actions: {' '.join(pomdp.actions)}",
           f"observations: {' '.join(pomdp.observations)}"]
    for s in pomdp.states:
        out.append(f"obs: {s} : {pomdp.obs_map[s]}")
    out.append(f"init: {pomdp.initial_state}")
    all_actions = frozenset(pomdp.actions)
    for o in pomdp.observations:
        acts = pomdp.available_at(o)
        if acts != all_actions:
            ordered = [a for a in pomdp.actions if a in acts]
            out.append(f"available: {o} : {' '.join(ordered)}")
    sidx = pomdp.state_index
    aidx = pomdp.action_index
    for (s, a) in sorted(pomdp.transitions,
                         key=lambda k: (sidx.get(k[0], len(sidx)), aidx.get(k[1], len(aidx)))):
        dist = pomdp.transitions[(s, a)]
        parts = ", ".join(f"{t} {dist[t]}"
                          for t in sorted(dist, key=lambda t: sidx.get(t, len(sidx))))
        out.append(f"trans: {s} {a} -> {parts}")
    if objective is not None:
        if objective.kind in _TARGET_KINDS:
            targets = sorted(objective.targets, key=lambda t: sidx.get(t, len(sidx)))
            out.append(f"objective: {objective.kind} {' '.join(targets)}")
        elif objective.kind == PARITY:
            top = objective.declared_max
            out.append("objective: parity" + ("" if top is None else f" {top}"))
            pm = objective.priority_map
            for s in pomdp.states:
                out.append(f"priority: {s} {pm[s]}")
        else:
            raise ParseError(f"objective kind {objective.kind!r} has no text form")
    return "\n".join(out) + "\n"


# -- strategies --

_SET_TOKEN = re.compile(r"\{[^{}]*\}|\S")


def _parse_color_sets(payload: str, line_no: int) -> frozenset[frozenset[int]]:
    sets = []
    for token in _SET_TOKEN.findall(payload):
        if not (token.startswith("{") and token.endswith("}")):
            raise ParseError(f"expected {{...}} colour sets, got {token!r}", line=line_no)
        body = token[1:-1].split()
        try:
            sets.append(frozenset(int(c) for c in body))
        except ValueError:
            raise ParseError(f"invalid colour in {token!r}", line=line_no) from None
    return frozenset(sets)


def parse_strategy(text: str) -> FiniteMemoryStrategy:
    """Parse a strategy document, reading its support table as it goes:
    each distinct row is checked and its support sorted once."""
    memories: tuple[str, ...] | None = None
    initial: str | None = None
    action_select: dict[str, dict[str, Fraction]] = {}
    memory_update: dict[tuple[str, str, str], dict[str, Fraction]] = {}
    action_support: dict[str, tuple[str, ...]] = {}
    update_support: dict[tuple[str, str, str], tuple[str, ...]] = {}
    beliefs: dict[str, frozenset[str]] = {}
    brecs: dict[str, frozenset[str]] = {}
    srecs: dict[str, dict[str, frozenset[frozenset[int]]]] = {}
    weights: dict = {}  # weight tokens and weighted payloads, parsed once

    for line_no, keyword, payload, line in _lines(text):
        if keyword == "memories":
            if memories is not None:
                raise ParseError("duplicate memories section", line=line_no)
            memories = tuple(_check_name(t, "memory", line_no) for t in payload.split())
            if len(set(memories)) != len(memories):
                raise ParseError("memory names collide", line=line_no)
        elif keyword == "init":
            if initial is not None:
                raise ParseError("duplicate init line", line=line_no)
            initial = _check_name(payload, "memory", line_no)
        elif keyword == "act":
            if "->" not in payload:
                raise ParseError("expected 'act: <memory> -> <action> <w>, ...'",
                                 line=line_no)
            head, rest = payload.split("->", 1)
            m = _check_name(head.strip(), "memory", line_no)
            if m in action_select:
                raise ParseError(f"duplicate act line for memory {m!r}", line=line_no)
            action_select[m], action_support[m] = _parse_weighted(
                rest, line_no, line, "action", weights)
        elif keyword == "update":
            if "->" not in payload:
                raise ParseError(
                    "expected 'update: <memory> <obs> <action> -> <memory> <w>, ...'",
                    line=line_no)
            head, rest = payload.split("->", 1)
            tokens = head.split()
            if len(tokens) != 3:
                raise ParseError("expected '<memory> <obs> <action>' before '->'",
                                 line=line_no)
            key = (tokens[0], tokens[1], tokens[2])
            if key in memory_update:
                raise ParseError(f"duplicate update line for {key}", line=line_no)
            memory_update[key], update_support[key] = _parse_weighted(
                rest, line_no, line, "memory", weights)
        elif keyword in ("belief", "brec"):
            parts = payload.split(":")
            if len(parts) != 2:
                raise ParseError(f"expected '{keyword}: <memory> : <states>'",
                                 line=line_no)
            m = _check_name(parts[0].strip(), "memory", line_no)
            store = beliefs if keyword == "belief" else brecs
            if m in store:
                raise ParseError(f"duplicate {keyword} line for memory {m!r}",
                                 line=line_no)
            store[m] = frozenset(_check_name(t, "state", line_no)
                                 for t in parts[1].split())
        elif keyword == "srec":
            parts = payload.split(":")
            if len(parts) != 3:
                raise ParseError("expected 'srec: <memory> : <state> : <sets>'",
                                 line=line_no)
            m = _check_name(parts[0].strip(), "memory", line_no)
            s = _check_name(parts[1].strip(), "state", line_no)
            per = srecs.setdefault(m, {})
            if s in per:
                raise ParseError(f"duplicate srec line for ({m!r}, {s!r})", line=line_no)
            per[s] = _parse_color_sets(parts[2], line_no)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=line_no)

    if memories is None:
        raise ParseError("missing memories section")
    if initial is None:
        raise ParseError("missing init line")
    memory_set = set(memories)
    if initial not in memory_set:
        raise ParseError(f"initial memory {initial!r} is not declared")
    for m in action_select:
        if m not in memory_set:
            raise ParseError(f"act line for unknown memory {m!r}")
    for (m, _o, _a), dist in memory_update.items():
        if m not in memory_set:
            raise ParseError(f"update line for unknown memory {m!r}")
        for m2 in dist:
            if m2 not in memory_set:
                raise ParseError(f"update targets unknown memory {m2!r}")
    for store, what in ((beliefs, "belief"), (brecs, "brec"), (srecs, "srec")):
        for m in store:
            if m not in memory_set:
                raise ParseError(f"{what} line for unknown memory {m!r}")

    elements: dict[str, MemoryElement] = {}
    annotated = set(beliefs) | set(brecs) | set(srecs)
    for m in annotated:
        if m not in beliefs:
            raise ParseError(f"memory {m!r} has element lines but no belief")
        elements[m] = MemoryElement(beliefs[m], brecs.get(m, frozenset()),
                                    tuple(sorted(srecs.get(m, {}).items())))
    return FiniteMemoryStrategy.checked(
        SupportStrategy(memories, action_support, update_support, initial,
                        elements), action_select, memory_update)


def serialize_strategy(strategy) -> str:
    """Canonical text form of a strategy, element annotations included;
    a support table is written with the uniform weights ``to_strategy``
    gives it (``1``, or ``1/k`` for each of k), without making them, and
    each of its distinct update rows is rendered once."""
    table = isinstance(strategy, SupportStrategy)
    row = lambda xs: dict.fromkeys(xs, "1" if len(xs) == 1 else f"1/{len(xs)}")
    if table:
        acts = {m: row(xs) for m, xs in strategy.action_support.items()}
        updates, initial = strategy.update_support, strategy.initial
    else:
        acts, updates = strategy.action_select, strategy.memory_update
        initial = strategy.initial_memory
    midx = {m: i for i, m in enumerate(strategy.memories)}
    by_index = lambda x: midx.get(x, len(midx))
    render = lambda dist: ", ".join([f"{m2} {dist[m2]}"
                                     for m2 in sorted(dist, key=by_index)])
    texts: dict[tuple[str, ...], str] = {}
    out = [f"memories: {' '.join(strategy.memories)}", f"init: {initial}"]
    for m in strategy.memories:
        dist = acts.get(m)
        if not dist:
            continue
        parts = ", ".join(f"{a} {dist[a]}" for a in sorted(dist))
        out.append(f"act: {m} -> {parts}")
    for (m, o, a) in sorted(updates, key=lambda k: (by_index(k[0]), k[1], k[2])):
        dist = updates[(m, o, a)]
        if not dist:
            continue
        if not table:
            parts = render(dist)
        elif (parts := texts.get(dist)) is None:
            parts = texts[dist] = render(row(dist))
        out.append(f"update: {m} {o} {a} -> {parts}")
    for m in strategy.memories:
        element = strategy.elements.get(m)
        if element is None:
            continue
        out.append(f"belief: {m} : {' '.join(sorted(element.belief))}")
        out.append(f"brec: {m} : {' '.join(sorted(element.brec))}")
        for s, zs in element.srec:
            rendered = " ".join(
                "{" + " ".join(str(c) for c in z) + "}"
                for z in sorted((tuple(sorted(z)) for z in zs)))
            out.append(f"srec: {m} : {s} : {rendered}")
    return "\n".join(out) + "\n"


# -- files and fixtures --

def load_model_file(path: str | Path) -> tuple[Pomdp, Objective | None]:
    return parse_model(Path(path).read_text(encoding="utf-8"))


def load_strategy_file(path: str | Path) -> FiniteMemoryStrategy:
    return parse_strategy(Path(path).read_text(encoding="utf-8"))


def save_strategy_file(path: str | Path, strategy) -> None:
    Path(path).write_text(serialize_strategy(strategy), encoding="utf-8",
                          newline="\n")


def fixture_text(name: str) -> str:
    res = importlib.resources.files("pomparity").joinpath("fixtures", f"{name}.pomdp")
    return res.read_text(encoding="utf-8")


def load_fixture(name: str) -> tuple[Pomdp, Objective]:
    """Load a bundled example model by name (e.g. 'ex1', 'ex2')."""
    pomdp, objective = parse_model(fixture_text(name))
    assert objective is not None
    return pomdp, objective
