"""Brute-force cross-validation of winning verdicts.

Qualitative winning depends only on the supports of a strategy's two maps,
never on its weights: the product chain's edge structure already decides
every almost-sure and positive question.  That makes exhaustive search
feasible on small instances: enumerate all support-level finite-memory
strategies up to a memory bound, evaluate each on its product chain, and
report the first winner in a fixed deterministic order.

The search never names a candidate.  Each one is a pair of index tables
(action supports per memory, update supports per key), its product chain
is walked over pair ids by the chain module's Tarjan pass, and it is
judged by the same evaluation rules that ``evaluate_qualitative`` applies
to a named chain.  Only the winner becomes a ``SupportStrategy``;
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from .chain import _condense, _state_colours, _wins, evaluable_objective
# The search never builds a named chain.  These stay importable from here
# because perfbench/spans.py wraps the chain layer as each caller sees it.
from .chain import build_product_chain, evaluate_qualitative  # noqa: F401
from .model import ContractError, Objective, Pomdp, WinningMode
from .strategy import FiniteMemoryStrategy, SupportStrategy, memory_bound


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
    """The candidate as a support table over memories m0..m(j-1)."""
    j, acts, key_pos = group
    actions, observations = pomdp.actions, pomdp.observations
    memories = tuple([f"m{i}" for i in range(j)])
    mem_options = _nonempty_subsets(j)
    return SupportStrategy(
        memories=memories,
        action_support={memories[mi]: tuple([actions[a] for a in acts[mi]])
                        for mi in range(j)},
        update_support={
            (memories[mi], observations[oi], actions[a]): tuple([
                memories[t] for t in mem_options[upd_combo[pos]]])
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
    """Per pair id s*j+m, what its successors are made of.

    One (row, pos) per successor state t of an action a that m plays at s:
    the key at pos is (m, obs(t), a), and row[u] lists the pair ids of t
    under update support u.  A candidate's successors of a pair are then
    the union of row[upd_combo[pos]] over its entries.
    """
    j, acts, key_pos = group
    obs, moves = pomdp.index_supports
    rows = [tuple([tuple([t * j + m2 for m2 in targets])
                   for targets in _nonempty_subsets(j)])
            for t in range(len(obs))]
    return [[(rows[t], key_pos[(m, obs[t], a)])
             for a in acts[m] for t in moves[s][a]]
            for s in range(len(obs)) for m in range(j)]


@dataclass
class OracleResult:
    """Outcome of a bounded brute-force search.

    ``verdict`` is "yes", "no" or "inconclusive" (budget exhausted before
    the stream).  A "no" is definitive only when ``definitive`` is set:
    the searched memory bound reached the sufficient bound for the
    objective.  ``candidates`` counts enumerated candidates.
    """

    verdict: str
    witness: FiniteMemoryStrategy | None
    searched_memories: int
    definitive: bool
    candidates: int


def _search_slice(args) -> tuple[int | None, SupportStrategy | None, int, bool]:
    """Scan every stride-th candidate from start; first winner of the slice.

    Returns (absolute index of the winner or None, the winning support
    strategy or None, candidates checked, whether the slice was exhausted
    rather than stopped by the limit).  Candidates stay index tables; a
    winner must be playable (every reached pair has a successor) and win
    by ``chain._wins``.  Only the winner is named.
    """
    pomdp, objective, mode, k, start, stride, limit = args
    s0 = pomdp.state_index[pomdp.initial_state]
    colour = _state_colours(pomdp, objective)
    stream = itertools.islice(_candidate_tables(pomdp, k), start, None, stride)
    group = parts = upd = None

    def successors(node: int) -> tuple[int, ...]:
        # of the current candidate: its group's ``parts``, its ``upd``
        out: set[int] = set()
        for row, pos in parts[node]:
            out.update(row[upd[pos]])
        return tuple(out)

    checked = 0
    for offset, (cand_group, upd) in enumerate(stream):
        if limit is not None and checked >= limit:
            return None, None, checked, False
        checked += 1
        if cand_group is not group:
            group, parts = cand_group, _compile_group(pomdp, cand_group)
        j = group[0]
        graph, comps, _, is_bottom = _condense(successors, (s0 * j,))
        if all(graph.values()) and _wins(
                graph, itertools.compress(comps, is_bottom), j, colour,
                pomdp, objective, mode):
            return (start + offset * stride, _named(pomdp, group, upd),
                    checked, True)
    return None, None, checked, True


def oracle_decide(pomdp: Pomdp, objective: Objective, mode: WinningMode,
                  k: int, budget: int | None = None,
                  jobs: int = 1) -> OracleResult:
    """Search all support strategies with at most k memories for a winner.

    Returns the first winner in enumeration order as a uniform-weight
    strategy (already evaluated by the chain module), "no" if the stream
    is exhausted, or "inconclusive" if the candidate budget ran out
    first.  ``jobs`` > 1 partitions the stream by stride across
    processes; the minimal-index winner is still reported, though under
    a budget the scan frontier may differ slightly from the sequential
    one.
    """
    if k < 1:
        raise ContractError("memory bound must be at least 1")
    if jobs < 1:
        raise ContractError("jobs must be at least 1")
    if budget is not None and budget < 0:
        raise ContractError("candidate budget must not be negative")
    base, evaluable = evaluable_objective(pomdp, objective)

    if jobs == 1:
        found, cand, checked, exhausted = _search_slice(
            (base, evaluable, mode, k, 0, 1, budget))
        results = [(found, cand, checked, exhausted)]
    else:
        share = None if budget is None else -(-budget // jobs)
        args = [(base, evaluable, mode, k, w, jobs, share)
                for w in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_search_slice, args))

    checked = sum(r[2] for r in results)
    winners = [(r[0], r[1]) for r in results if r[0] is not None]
    if winners:
        _, cand = min(winners, key=lambda w: w[0])
        return OracleResult("yes", cand.to_strategy(), k, True, checked)
    if all(r[3] for r in results):
        return OracleResult("no", None, k,
                            k >= memory_bound(base, evaluable), checked)
    return OracleResult("inconclusive", None, k, False, checked)
