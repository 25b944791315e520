"""Brute-force cross-validation of winning verdicts.

Qualitative winning depends only on the supports of a strategy's two maps,
never on its weights: the product chain's edge structure already decides
every almost-sure and positive question.  That makes exhaustive search
feasible on small instances: enumerate all support-level finite-memory
strategies up to a memory bound, evaluate each on its product chain, and
report the first winner in a fixed deterministic order.

The oracle shares nothing with the solve pipelines except the chain
evaluator itself, so agreement between the two is meaningful evidence.
A "no" is definitive only when the searched bound reaches the sufficient
memory size for the objective; below that it means no winner with that
little memory, which is still a one-sided check (any oracle "yes" must be
matched by the solver).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from .chain import build_product_chain, evaluable_objective, evaluate_qualitative
from .model import ContractError, Objective, Pomdp, WinningMode
from .strategy import FiniteMemoryStrategy, SupportStrategy, memory_bound


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


def enumerate_strategies(pomdp: Pomdp, k: int,
                         canonical: bool = True) -> Iterator[SupportStrategy]:
    """All support strategies with at most k memories, deterministically.

    The stream is exhaustive and duplicate-free; with ``canonical`` (the
    default) strategies that differ only by renaming non-initial memories
    are emitted once, in minimal-encoding form.  Order: by memory count,
    then lexicographically by (action supports, update supports) in mask
    encoding — so "the first winner" is reproducible.
    """
    if k < 1:
        raise ContractError("memory bound must be at least 1")
    actions = tuple(pomdp.actions)
    observations = tuple(pomdp.observations)
    act_options = _nonempty_subsets(len(actions))
    for j in range(1, k + 1):
        memories = tuple(f"m{i}" for i in range(j))
        mem_options = _nonempty_subsets(j)
        for act_combo in itertools.product(range(len(act_options)), repeat=j):
            keys = [(mi, oi, a)
                    for mi in range(j)
                    for oi in range(len(observations))
                    for a in act_options[act_combo[mi]]]
            key_pos = {key: pos for pos, key in enumerate(keys)}
            for upd_combo in itertools.product(range(len(mem_options)),
                                               repeat=len(keys)):
                if canonical and j > 1 and not _is_canonical(
                        act_combo, upd_combo, key_pos, act_options,
                        mem_options, j, len(observations)):
                    continue
                action_support = {
                    memories[mi]: tuple(actions[a]
                                        for a in act_options[act_combo[mi]])
                    for mi in range(j)}
                update_support = {
                    (memories[mi], observations[oi], actions[a]):
                        tuple(memories[t]
                              for t in mem_options[upd_combo[pos]])
                    for (mi, oi, a), pos in key_pos.items()}
                yield SupportStrategy(
                    memories=memories, action_support=action_support,
                    update_support=update_support, initial=memories[0])


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
    rather than stopped by the limit).
    """
    pomdp, objective, mode, k, start, stride, limit = args
    stream = itertools.islice(enumerate_strategies(pomdp, k),
                              start, None, stride)
    checked = 0
    for offset, cand in enumerate(stream):
        if limit is not None and checked >= limit:
            return None, None, checked, False
        checked += 1
        chain = build_product_chain(pomdp, cand)
        # a winner must be playable: every reachable pair has a successor
        if all(chain.succ.values()) and evaluate_qualitative(chain, objective, mode):
            return start + offset * stride, cand, checked, True
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
