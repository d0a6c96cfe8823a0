"""The five priority dispatching rules forming the policy action set.

Rule keys over a ready job, whose candidate is its next operation (each
key ends in the job, so ties go to the lowest job everywhere):

  FIFO  earliest arrival (completion of the job predecessor, 0 for first ops)
  SPT   smallest duration of the candidate operation
  MOR   most remaining operations of the job, the candidate included
  MWR   most remaining processing time of the job, the candidate included
  LOR   fewest remaining operations of the job, the candidate included

`apply(rule, state)` picks from the state's ready set and reads the jobs'
operations from the instance the state keeps.
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sim import Policy, SimState


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


def apply(rule: Heuristic, state: SimState) -> int:
    """The ready job best under the rule's key; FIFO and MWR read the state,
    SPT the candidate's duration, and MOR and LOR the job's operations left."""
    ready, jobs, next_op = state.ready, state.instance.jobs, state.job_next_op
    if not ready:
        raise ValueError("empty ready set")
    if rule.__class__ is not Heuristic:
        raise ValueError(f"not a dispatching rule: {rule!r}")
    if len(ready) == 1:  # every key picks a lone job
        return ready[0]
    if rule is Heuristic.FIFO:
        arrival = state.job_ready_at
        key = lambda j: (arrival[j], j)
    elif rule is Heuristic.SPT:
        key = lambda j: (jobs[j][next_op[j]].duration, j)
    elif rule is Heuristic.MWR:
        work = state.job_work
        key = lambda j: (-work[j], j)
    elif rule is Heuristic.MOR:
        key = lambda j: (next_op[j] - len(jobs[j]), j)
    else:  # LOR
        key = lambda j: (len(jobs[j]) - next_op[j], j)
    return min(ready, key=key)


def random_rule_policy(rng: random.Random) -> Policy:
    """A policy drawing a uniform rule independently at every decision."""
    return lambda cv: rng.choice(HEURISTICS)
