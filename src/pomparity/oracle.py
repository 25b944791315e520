"""Brute-force cross-validation of winning verdicts.

Qualitative winning depends only on the supports of a strategy's two maps,
never on its weights: the product chain's edge structure already decides
every almost-sure and positive question.  That makes exhaustive search
feasible on small instances: enumerate all support-level finite-memory
strategies up to a memory bound, evaluate each on its product chain, and
report the first winner in a fixed deterministic order.  The search runs
in the calling process, one candidate at a time.

The search never names a candidate.  Each one is a pair of index tables
(action supports per memory, update supports per key), judged on bit sets
(``_judge``) by the evaluation rules ``evaluate_qualitative`` applies to a
named chain.  Only the winner becomes a ``SupportStrategy``;
``enumerate_strategies`` names every candidate of the same stream.

The oracle shares nothing with the solve pipelines except the chain
module itself, so agreement between the two is meaningful evidence.
A "no" is definitive only when the searched bound reaches the sufficient
memory size for the objective; below that it means no winner with that
little memory, which is still a one-sided check (any oracle "yes" must be
matched by the solver).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .chain import _require_colours, _state_colours, _wins, evaluable_objective
# The search never builds a named chain.  These stay importable from here
# because perfbench/spans.py wraps the chain layer as each caller sees it.
from .chain import build_product_chain, evaluate_qualitative  # noqa: F401
from .model import ContractError, Objective, Pomdp, WinningMode
from .strategy import SupportStrategy, memory_bound


@functools.cache
def _nonempty_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """All non-empty subsets of range(n) as index tuples, in mask order.

    The subset over indices I sits at position (sum of 2^i) - 1, which
    lets renamings re-rank a permuted subset in constant time.
    """
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return tuple(out)


def _subset_rank(indices: Iterator[int]) -> int:
    return sum(1 << i for i in indices) - 1


def _is_canonical(act_combo: tuple[int, ...], upd_combo: tuple[int, ...],
                  key_pos: dict[tuple[int, int, int], int],
                  act_options, mem_options, j: int, n_obs: int) -> bool:
    """Is this assignment minimal among its memory renamings?

    Renamings permute the non-initial memories; the initial memory is
    pinned to slot 0.  The encoding compared is (action ranks by slot,
    update ranks in canonical key order), so exactly one representative
    of each equivalence class survives.
    """
    original = (act_combo, upd_combo)
    for tail in itertools.permutations(range(1, j)):
        if tail == tuple(range(1, j)):
            continue
        pi = (0,) + tail  # old memory index -> new memory index
        inv = [0] * j
        for old, new in enumerate(pi):
            inv[new] = old
        act2 = tuple(act_combo[inv[mi]] for mi in range(j))
        upd2 = []
        for mi in range(j):
            old_mi = inv[mi]
            for oi in range(n_obs):
                for a in act_options[act_combo[old_mi]]:
                    targets = mem_options[upd_combo[key_pos[(old_mi, oi, a)]]]
                    upd2.append(_subset_rank(pi[t] for t in targets))
        renamed = (act2, tuple(upd2))
        if renamed < original:
            return False
    return True


# A candidate as index tables: (group, upd_combo).  The group is shared by
# every candidate with the same memory count j and action supports:
# (j, acts, key_pos), where acts[mi] is the action indices memory mi plays
# and key_pos maps each update key (mi, observation index, action index) to
# its position.  upd_combo[pos] is the update support at that key, as a
# position in _nonempty_subsets(j).
Group = tuple[int, tuple[tuple[int, ...], ...], dict[tuple[int, int, int], int]]


def _candidate_tables(pomdp: Pomdp, k: int, canonical: bool = True
                      ) -> Iterator[tuple[Group, tuple[int, ...]]]:
    """The candidate stream of ``enumerate_strategies``, as index tables."""
    if k < 1:
        raise ContractError("memory bound must be at least 1")
    n_obs = len(pomdp.observations)
    act_options = _nonempty_subsets(len(pomdp.actions))
    for j in range(1, k + 1):
        mem_options = _nonempty_subsets(j)
        for act_combo in itertools.product(range(len(act_options)), repeat=j):
            acts = tuple([act_options[c] for c in act_combo])
            key_pos = {key: pos for pos, key in enumerate(
                (mi, oi, a) for mi in range(j) for oi in range(n_obs)
                for a in acts[mi])}
            group = (j, acts, key_pos)
            for upd_combo in itertools.product(range(len(mem_options)),
                                               repeat=len(key_pos)):
                # with two memories the only renaming is the identity
                if canonical and j > 2 and not _is_canonical(
                        act_combo, upd_combo, key_pos, act_options,
                        mem_options, j, n_obs):
                    continue
                yield group, upd_combo


def _named(pomdp: Pomdp, group: Group, upd_combo: tuple[int, ...]
           ) -> SupportStrategy:
    """The candidate as a name-sorted support table over memories
    m0..m(j-1)."""
    j, acts, key_pos = group
    actions, observations = pomdp.actions, pomdp.observations
    memories = tuple([f"m{i}" for i in range(j)])
    mem_options = _nonempty_subsets(j)
    return SupportStrategy(
        memories=memories,
        action_support={memories[mi]: tuple(sorted([actions[a]
                                                    for a in acts[mi]]))
                        for mi in range(j)},
        update_support={
            (memories[mi], observations[oi], actions[a]): tuple(sorted([
                memories[t] for t in mem_options[upd_combo[pos]]]))
            for (mi, oi, a), pos in key_pos.items()},
        initial=memories[0])


def enumerate_strategies(pomdp: Pomdp, k: int,
                         canonical: bool = True) -> Iterator[SupportStrategy]:
    """All support strategies with at most k memories, deterministically.

    The stream is exhaustive and duplicate-free; with ``canonical`` (the
    default) strategies that differ only by renaming non-initial memories
    are emitted once, in minimal-encoding form.  Order: by memory count,
    then lexicographically by (action supports, update supports) in mask
    encoding — so "the first winner" is reproducible.
    """
    for group, upd_combo in _candidate_tables(pomdp, k, canonical):
        yield _named(pomdp, group, upd_combo)


def _compile_group(pomdp: Pomdp, group: Group) -> list[list[tuple]]:
    """Per pair id s*j+m, one (pos, masks) per update key (m, obs(t), a)
    it reads: masks[u] has bit t*j + m2 for each successor t under the key
    and memory m2 in update support u, whose bit mask is u + 1."""
    j, acts, key_pos = group
    obs, moves = pomdp.index_supports
    parts = []
    for s, m in itertools.product(range(len(obs)), range(j)):
        spots: dict[int, int] = {}  # key position -> its bits t*j
        for a in acts[m]:
            for t in moves[s][a]:
                pos = key_pos[(m, obs[t], a)]
                spots[pos] = spots.get(pos, 0) | 1 << t * j
        parts.append([(pos, tuple([u * spot for u in range(1, 1 << j)]))
                      for pos, spot in spots.items()])
    return parts


def _bottom_classes(nodes: list[int], packed: int, width: int) -> list[int]:
    """The bottom classes, as bit sets, of a graph on ints below ``width``.

    Row n, bits n*width to n*width + width - 1 of ``packed``, holds the
    successors of n: for each n in ``nodes``, at least one, all in ``nodes``.
    Warshall's pass makes each row R(n), the nodes n reaches in one step
    or more: for each n, one multiplication adds R(n) to every row holding
    n.  A bottom class C is R(n) for each member n (n reaches only C, and
    all of it through a successor); an R whose members all have R(n) = R
    is a bottom class (they reach each other and nothing else).
    """
    full = (1 << width) - 1
    ones = ((1 << width * width) - 1) // full  # bit 0 of every row
    for n in nodes:
        packed |= (packed >> n & ones) * (packed >> n * width & full)
    holders: dict[int, int] = {}  # R -> the nodes n with R(n) = R
    for n in nodes:
        reach = packed >> n * width & full
        holders[reach] = holders.get(reach, 0) | 1 << n
    return [reach for reach, held in holders.items() if not reach & ~held]


def _judge(pomdp: Pomdp, objective: Objective, mode: WinningMode):
    """Judge a candidate by its group's ``_compile_group``, memory count j
    and update combination: walked from (s0, m0), it loses if a reached
    pair has no successor, else ``chain._wins`` judges the colour sets of
    its ``_bottom_classes`` once ``chain._require_colours`` passes."""
    s0 = pomdp.state_index[pomdp.initial_state]
    colour = _state_colours(pomdp, objective)
    colours = functools.cache(lambda reach, j: frozenset([
        colour[n // j] for n in range(reach.bit_length()) if reach >> n & 1]))

    def judge(parts, j: int, upd: tuple[int, ...]) -> bool:
        nodes, seen, packed = [s0 * j], 1 << s0 * j, 0
        for n in nodes:  # grows as the walk reaches new pairs
            row = 0
            for pos, masks in parts[n]:
                row |= masks[upd[pos]]
            if not row:
                return False
            packed |= row << n * len(parts)
            new = row & ~seen
            seen |= new
            while new:
                nodes.append((new & -new).bit_length() - 1)
                new &= new - 1
        _require_colours(pomdp, colour, nodes, j)
        return _wins(map(colours, _bottom_classes(nodes, packed, len(parts)),
                         itertools.repeat(j)), objective, mode)
    return judge


@dataclass
class OracleResult:
    """Outcome of a bounded brute-force search.

    ``verdict`` is "yes", "no" or "inconclusive" (budget exhausted before
    the stream).  A "no" is definitive only when ``definitive`` is set:
    the searched memory bound reached the sufficient bound for the
    objective.  ``candidates`` counts judged candidates, never more than
    the budget; ``witness`` is the winner's support table, as
    ``enumerate_strategies`` names it.
    """

    verdict: str
    witness: SupportStrategy | None
    searched_memories: int
    definitive: bool
    candidates: int


def oracle_decide(pomdp: Pomdp, objective: Objective, mode: WinningMode,
                  k: int, budget: int | None = None) -> OracleResult:
    """Search all support strategies with at most k memories for a winner.

    Judges the candidates one by one in enumeration order and returns the
    first winner as a support table (already evaluated by the chain
    module), "no" if the stream is exhausted, or "inconclusive" once
    ``budget`` candidates are judged without a winner and more remain.
    Only the winner is named.
    """
    if budget is not None and budget < 0:
        raise ContractError("candidate budget must not be negative")
    base, evaluable = evaluable_objective(pomdp, objective)
    judge = _judge(base, evaluable, mode)
    group, parts, checked = None, None, 0
    for cand_group, upd in _candidate_tables(base, k):
        if checked == budget:
            return OracleResult("inconclusive", None, k, False, checked)
        checked += 1
        if cand_group is not group:
            group, parts = cand_group, _compile_group(base, cand_group)
        if judge(parts, group[0], upd):
            return OracleResult("yes", _named(base, group, upd), k, True,
                                checked)
    return OracleResult("no", None, k, k >= memory_bound(base, evaluable),
                        checked)
