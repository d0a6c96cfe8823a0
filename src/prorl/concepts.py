"""State abstractions consumed by policy conditions.

Five normalized features summarize a partial schedule at a decision point:

  ld  machine load balance      (max - min) / max over per-machine remaining work
  am  available machine ratio   machines free at the clock / machine count
  ao  available operation ratio startable operations / unscheduled operations
  jd  job remaining-time balance (max - min) / max over per-job remaining work,
      jobs with nothing left excluded; 0 when at most one job remains
  st  shortest-op balance       (max - min) / max over unscheduled durations

Every feature lies in [0, 1]. Whenever a (max - min) / max ratio has max = 0
the feature is defined as 0 (nothing left in that dimension reads as
perfectly balanced).

`extract(state)` reads everything off the state alone: the ready set, the
machine count from the instance the state keeps, remaining machine loads
and job work from the running totals on `SimState`, and the duration
bounds and the count of unscheduled operations from its sorted list of
unscheduled durations: O(n + m) per vector for n jobs and m machines,
with no rescan of the jobs' suffixes. It is the only source of
`ConceptVector`s in the program, so the vector checks nothing when built;
the property suites check the range of the vectors `extract` makes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .sim import SimState

CONCEPT_NAMES = ("LD", "AM", "AO", "JD", "ST")


class ConceptVector(NamedTuple):
    ld: float
    am: float
    ao: float
    jd: float
    st: float


def extract(state: SimState) -> ConceptVector:
    """Compute the concept vector for the decision pending at `state`."""
    durations = state.durations
    if not durations:
        raise ValueError("all operations scheduled; no decision pending")

    clock = state.clock
    am = len([t for t in state.machine_free_at if t <= clock]) / state.instance.num_machines
    ao = len(state.ready) / len(durations)
    loads = state.machine_load
    high, low = max(loads), min(loads)
    ld = (high - low) / high if high > 0 else 0.0
    # work left and durations are positive, so neither max below is 0
    work = [w for w in state.job_work if w]  # jobs with nothing left are excluded
    jd = 0.0
    if len(work) > 1:
        high, low = max(work), min(work)
        jd = (high - low) / high
    st = (durations[-1] - durations[0]) / durations[-1]
    # tuple.__new__ skips the keyword constructor, which costs four times as much
    return tuple.__new__(ConceptVector, (ld, am, ao, jd, st))
