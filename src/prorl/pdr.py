"""The five priority dispatching rules forming the policy action set.

Rule keys over a ready operation (ties broken by lowest job index, then
lowest operation index, everywhere):

  FIFO  earliest arrival (completion of the job predecessor, 0 for first ops)
  SPT   smallest duration of the candidate operation
  MOR   most remaining operations of the job, the candidate included
  MWR   most remaining processing time of the job, the candidate included
  LOR   fewest remaining operations of the job, the candidate included
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .instance import Instance
    from .sim import Policy, ReadyOp


class Heuristic(enum.Enum):
    FIFO = "FIFO"
    SPT = "SPT"
    MOR = "MOR"
    MWR = "MWR"
    LOR = "LOR"

    # members are singletons, so identity is equality; object's C-level hash
    # keeps the trie's per-node pick lookups out of Enum.__hash__
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "Heuristic":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown dispatching rule {text!r}") from None

    def __str__(self) -> str:
        return self.value


HEURISTICS = tuple(Heuristic)


def apply(rule: Heuristic, ready: Sequence[ReadyOp], instance: Instance) -> ReadyOp:
    """Return the best candidate under the rule's key; MWR reads the cached
    suffix work, MOR and LOR count the job's length less the op's index."""
    if not ready:
        raise ValueError("empty ready set")
    if rule is Heuristic.FIFO:
        key = lambda c: (c.arrival, c.job, c.op_index)
    elif rule is Heuristic.SPT:
        key = lambda c: (c.duration, c.job, c.op_index)
    elif rule is Heuristic.MWR:
        work = instance.suffix_work
        key = lambda c: (-work[c.job][c.op_index], c.job, c.op_index)
    elif rule is Heuristic.MOR:
        jobs = instance.jobs
        key = lambda c: (c.op_index - len(jobs[c.job]), c.job, c.op_index)
    elif rule is Heuristic.LOR:
        jobs = instance.jobs
        key = lambda c: (len(jobs[c.job]) - c.op_index, c.job, c.op_index)
    else:
        raise ValueError(f"not a dispatching rule: {rule!r}")
    return min(ready, key=key)


def random_rule_policy(rng: random.Random) -> Policy:
    """A policy drawing a uniform rule independently at every decision."""
    return lambda cv: rng.choice(HEURISTICS)
