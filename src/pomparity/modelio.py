"""Text formats for models (.pomdp) and strategies (.strat).

Both formats are line-oriented, UTF-8, LF, with '#' comments.  Names may
use any characters except whitespace, ':', ',' and '#'.  Weights are exact:
fractions like ``1/6``, integers, or decimal literals (``0.5`` means the
rational 1/2, not a binary float).  Serialization is canonical — fixed
section order, fixed whitespace, successors in state order — so that
parse/serialize round-trips are byte-identical on canonical documents and
two equal models always serialize to identical bytes.  Both parsers hold
every line to three rules, each stated once: its field layout, keys given
once per document, and names checked after the document, the first
unknown one named in document order (in name order within a set).

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


# -- the line rules of both formats --

def _fields(payload: str, sep: str | None, n: int, usage: str, line_no: int,
            filled: bool = False) -> list[str]:
    """A payload's ``n`` fields around ``sep`` (``None``: whitespace; ``'->'``:
    head and rest at the first arrow), none of them empty if ``filled``.
    Any other shape raises ``expected usage``."""
    parts = payload.split(sep, 1 if sep == "->" else -1)
    if len(parts) != n or filled and "" in parts:
        raise ParseError(f"expected {usage}", line=line_no)
    return parts


def _once(store, key, line_no: int, what: str, *context) -> None:
    """Raise ``duplicate <what>`` if an earlier line gave ``key`` to ``store``,
    formatting ``what`` with ``context`` and the key only then.  It is a
    statement of its own: ``store[k] = parse()`` would parse first."""
    if key in store:
        raise ParseError("duplicate " + what.format(*context, key), line=line_no)


def _known(known, names, what: str, *context) -> None:
    """Raise ``what``, formatted with ``context`` and the name, for the first
    of ``names`` not in ``known``; callers pass document or name order."""
    for name in names:
        if name not in known:
            raise ParseError(what.format(*context, name))


# -- models --

def parse_model(text: str) -> tuple[Pomdp, Objective | None]:
    """Parse a model document; the objective may be absent."""
    given: dict = {}  # each once-per-document keyword -> its value
    obs_map: dict[str, str] = {}
    available: dict[str, frozenset[str]] = {}
    transitions: dict[tuple[str, str], dict[str, Fraction]] = {}
    objective_kind: str | None = None
    objective_targets: list[str] = []
    declared_max: int | None = None
    priorities: dict[str, int] = {}
    weights: dict = {}  # weight tokens and weighted payloads, parsed once

    for line_no, keyword, payload, line in _lines(text):
        if keyword in _SECTIONS:
            names = tuple(_check_name(t, keyword[:-1], line_no)
                          for t in payload.split())
            if not names:
                raise ParseError(f"empty {keyword} section", line=line_no)
            _once(given, keyword, line_no, "{} section")
            given[keyword] = names
        elif keyword == "obs":
            s, o = _fields(payload, ":", 2, "'obs: <state> : <observation>'",
                           line_no, filled=True)
            s = s.strip()
            _once(obs_map, s, line_no, "observation for state {!r}")
            obs_map[s] = o.strip()
        elif keyword == "init":
            _once(given, keyword, line_no, "{} line")
            given[keyword] = _check_name(payload, "state", line_no)
        elif keyword == "available":
            o, acts = _fields(payload, ":", 2,
                              "'available: <observation> : <actions>'", line_no)
            o = _check_name(o.strip(), "observation", line_no)
            _once(available, o, line_no, "available line for {!r}")
            acts = frozenset(_check_name(t, "action", line_no) for t in acts.split())
            if not acts:
                raise ParseError(f"empty available set for {o!r}", line=line_no)
            available[o] = acts
        elif keyword == "trans":
            head, rest = _fields(payload, "->", 2,
                                 "'trans: <state> <action> -> ...'", line_no)
            s, a = _fields(head, None, 2, "'<state> <action>' before '->'", line_no)
            key = (_check_name(s, "state", line_no), _check_name(a, "action", line_no))
            _once(transitions, key, line_no, "transition line for {0[0]!r}/{0[1]!r}")
            transitions[key] = _parse_weighted(rest, line_no, line, "state", weights)[0]
        elif keyword == "objective":
            _once(given, keyword, line_no, "{} line")
            given[keyword] = line_no
            tokens = payload.split()
            if not tokens:
                raise ParseError("empty objective line", line=line_no)
            objective_kind = tokens[0]
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
            s, p = _fields(payload, None, 2, "'priority: <state> <int>'", line_no)
            s = _check_name(s, "state", line_no)
            try:
                p = int(p)
            except ValueError:
                raise ParseError(f"invalid priority {p!r}", line=line_no) from None
            _once(priorities, s, line_no, "priority for state {!r}")
            priorities[s] = p
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=line_no)

    for name in _SECTIONS:
        if name not in given:
            raise ParseError(f"missing {name} section")
    states, actions, observations = map(given.__getitem__, _SECTIONS)
    initial = given.get("init")
    if initial is None:
        raise ParseError("missing init line")
    state_set, action_set, obs_set = set(states), set(actions), set(observations)
    for s, o in obs_map.items():
        _known(state_set, (s,), "obs line for unknown state {!r}")
        _known(obs_set, (o,), "state {!r} mapped to unknown observation {!r}", s)
    for o, acts in available.items():
        _known(obs_set, (o,), "available line for unknown observation {!r}")
        _known(action_set, sorted(acts),
               "available line for {!r} names unknown action {!r}", o)
    for (s, a), dist in transitions.items():
        _known(state_set, (s,), "transition from unknown state {!r}")
        _known(action_set, (a,), "transition uses unknown action {!r}")
        _known(state_set, dist, "transition targets unknown state {!r}")
    _known(state_set, (initial,), "initial state {!r} is not declared")

    pomdp = Pomdp(states=states, actions=actions, observations=observations,
                  obs_map=obs_map, transitions=transitions,
                  initial_state=initial, available=available)

    objective: Objective | None = None
    if objective_kind in _TARGET_KINDS:
        unknown = sorted(set(objective_targets) - state_set)
        if unknown:
            raise ParseError(f"objective targets unknown states: {', '.join(unknown)}",
                             line=given["objective"])
        objective = Objective(objective_kind, targets=frozenset(objective_targets))
    elif objective_kind == PARITY:
        _known(state_set, priorities, "priority for unknown state {!r}")
        missing = sorted(state_set - set(priorities))
        if missing:
            raise ParseError(f"missing priority for states: {', '.join(missing)}")
        objective = Objective.parity(priorities, declared_max=declared_max)
    elif priorities:
        raise ParseError("priority lines without 'objective: parity'")
    return pomdp, objective


def _row(dist, key=None) -> str:
    """A weighted row, ``name w, name w, ...``, in ``sorted(dist, key=key)`` order."""
    return ", ".join([f"{x} {dist[x]}" for x in sorted(dist, key=key)])


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
    by_state = lambda t: sidx.get(t, len(sidx))
    for (s, a) in sorted(pomdp.transitions,
                         key=lambda k: (by_state(k[0]), aidx.get(k[1], len(aidx)))):
        out.append(f"trans: {s} {a} -> {_row(pomdp.transitions[(s, a)], by_state)}")
    if objective is not None:
        if objective.kind in _TARGET_KINDS:
            targets = sorted(objective.targets, key=by_state)
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
    given: dict = {}  # each once-per-document keyword -> its value
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
            _once(given, keyword, line_no, "{} section")
            memories = given[keyword] = tuple(
                _check_name(t, "memory", line_no) for t in payload.split())
            if len(set(memories)) != len(memories):
                raise ParseError("memory names collide", line=line_no)
        elif keyword == "init":
            _once(given, keyword, line_no, "{} line")
            given[keyword] = _check_name(payload, "memory", line_no)
        elif keyword == "act":
            head, rest = _fields(payload, "->", 2,
                                 "'act: <memory> -> <action> <w>, ...'", line_no)
            m = _check_name(head.strip(), "memory", line_no)
            _once(action_select, m, line_no, "act line for memory {!r}")
            action_select[m], action_support[m] = _parse_weighted(
                rest, line_no, line, "action", weights)
        elif keyword == "update":
            head, rest = _fields(
                payload, "->", 2,
                "'update: <memory> <obs> <action> -> <memory> <w>, ...'", line_no)
            m, o, a = _fields(head, None, 3, "'<memory> <obs> <action>' before '->'",
                              line_no)
            key = (m, _check_name(o, "observation", line_no),
                   _check_name(a, "action", line_no))
            _once(memory_update, key, line_no, "update line for {}")
            memory_update[key], update_support[key] = _parse_weighted(
                rest, line_no, line, "memory", weights)
        elif keyword in ("belief", "brec"):
            m, states = _fields(payload, ":", 2, f"'{keyword}: <memory> : <states>'",
                                line_no)
            m = _check_name(m.strip(), "memory", line_no)
            store = beliefs if keyword == "belief" else brecs
            _once(store, m, line_no, "{} line for memory {!r}", keyword)
            store[m] = frozenset(_check_name(t, "state", line_no)
                                 for t in states.split())
        elif keyword == "srec":
            m, s, sets = _fields(payload, ":", 3,
                                 "'srec: <memory> : <state> : <sets>'", line_no)
            m = _check_name(m.strip(), "memory", line_no)
            s = _check_name(s.strip(), "state", line_no)
            per = srecs.setdefault(m, {})
            _once(per, s, line_no, "srec line for ({!r}, {!r})", m)
            per[s] = _parse_color_sets(sets, line_no)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=line_no)

    memories = given.get("memories")
    if memories is None:
        raise ParseError("missing memories section")
    initial = given.get("init")
    if initial is None:
        raise ParseError("missing init line")
    memory_set = set(memories)
    _known(memory_set, (initial,), "initial memory {!r} is not declared")
    _known(memory_set, action_select, "act line for unknown memory {!r}")
    for (m, _o, _a), dist in memory_update.items():
        _known(memory_set, (m,), "update line for unknown memory {!r}")
        _known(memory_set, dist, "update targets unknown memory {!r}")
    for store, what in ((beliefs, "belief"), (brecs, "brec"), (srecs, "srec")):
        _known(memory_set, store, "{} line for unknown memory {!r}", what)

    elements: dict[str, MemoryElement] = {}
    for m in memories:  # in declaration order
        if m in beliefs or m in brecs or m in srecs:
            _known(beliefs, (m,), "memory {!r} has element lines but no belief")
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
    texts: dict[tuple[str, ...], str] = {}
    out = [f"memories: {' '.join(strategy.memories)}", f"init: {initial}"]
    for m in strategy.memories:
        dist = acts.get(m)
        if dist:
            out.append(f"act: {m} -> {_row(dist)}")
    for (m, o, a) in sorted(updates, key=lambda k: (by_index(k[0]), k[1], k[2])):
        dist = updates[(m, o, a)]
        if not dist:
            continue
        if not table:
            parts = _row(dist, by_index)
        elif (parts := texts.get(dist)) is None:
            parts = texts[dist] = _row(row(dist), by_index)
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
