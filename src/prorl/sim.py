"""Event-driven non-delay job-shop simulator.

The schedule is built one operation per decision. At a decision point the
candidate set holds every operation whose job predecessor has completed AND
whose machine is idle at the current clock, so a chosen operation always
starts immediately. After a dispatch, if no operation is startable at the
clock but work remains, the clock jumps to the earliest time at which some
operation becomes startable (the smallest max(job ready, machine free) over
pending next-operations). Episodes therefore make exactly one policy call
per operation and produce non-delay schedules. A job starts only its next
operation, so a dispatch is named by its job: `ready_set` lists jobs, a
rule picks one, and `step` takes its number.

`SimState` holds only what the next decision reads: the clock, the ready
set (the jobs startable at the clock, in job order), when each machine and
job is next free, each job's next operation and its machine, and running
totals for the concepts (remaining load per machine, remaining work per
job, and the sorted durations of the unscheduled operations, whose ends
are their bounds and whose length counts the operations left). `reset`
seeds them from the instance's cached tables, `step` updates them and
`ready_set` reads the ready set off the state. At one clock a dispatch can
only take jobs out of the ready set: the job dispatched, and every job
waiting for the machine it took. So `step` filters the ready set, and
only when it empties makes one pass over the jobs, which finds the next
event and the jobs startable then. For n jobs, m machines and r ready
jobs, a decision costs O(r) in the simulator, O(n) more at a clock jump,
and O(n + m) in the concept read-out, plus one deletion from the sorted
list. Start times are not state; `run_episode` records them. A state
keeps the instance `reset` gave it, so each per-decision call takes the
state alone: `ready_set(state)`, `extract(state)`,
`pdr.apply(rule, state)` and `step(state, job)`.

Training asks for makespans only, and most of its episodes repeat an
earlier dispatch sequence. `EpisodeTrie` caches the decisions of every
episode it runs and answers a repeat by walking them, re-simulating only
from the first new decision on; it counts at most `TRIE_MAX_NODES` decisions.
Both it and `run_episode` simulate through the one loop in `_decisions`.
A decision with a single ready job is forced: every rule picks it, so the
trie keeps only its job and neither reads concepts nor calls the policy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from . import pdr
from .concepts import ConceptVector, extract
from .instance import Instance


@dataclass
class SimState:
    """Mutable per-episode schedule state; owned by a single episode. Only
    `step` changes it, and it rebinds `ready` rather than mutating it, so a
    ready set read before a step stays as it was."""

    instance: Instance = field(repr=False, compare=False)  # the one `reset` was given
    clock: int
    machine_free_at: list[int]
    job_next_op: list[int]
    job_ready_at: list[int]  # end of each job's last dispatched operation
    machine_load: list[int]  # unscheduled processing time per machine
    job_work: list[int]  # unscheduled processing time per job
    durations: list[int]  # of the unscheduled operations, sorted; empty at the end
    next_machine: list[int]  # machine of each job's next operation, -1 once done
    ready: list[int]  # the jobs startable at the clock, in job order


@dataclass(frozen=True)
class ScheduleResult:
    makespan: int
    start_times: tuple[tuple[int, ...], ...]
    decisions: tuple[tuple[ConceptVector, str], ...]


# A policy maps the concepts at a decision to the dispatching rule to apply.
# It must be a pure function of the concept vector: the episode trie calls it
# only where it has not yet seen the answer, and not at forced decisions.
Policy = Callable[[ConceptVector], pdr.Heuristic]


def reset(instance: Instance) -> SimState:
    """Fresh state: clock 0, all machines free, every job at its first operation."""
    return SimState(
        instance=instance,
        clock=0,
        machine_free_at=[0] * instance.num_machines,
        job_next_op=[0] * instance.num_jobs,
        job_ready_at=[0] * instance.num_jobs,
        machine_load=list(instance.machine_loads),
        job_work=list(instance.job_work),
        durations=list(instance.durations),
        next_machine=[ops[0].machine if ops else -1 for ops in instance.jobs],
        ready=[job for job, ops in enumerate(instance.jobs) if ops],
    )


def ready_set(state: SimState) -> list[int]:
    """The jobs whose next operation is startable now, in job order."""
    if not state.durations:
        raise ValueError("all operations scheduled")
    return state.ready


def step(state: SimState, job: int) -> SimState:
    """Dispatch `job`, which must be in the ready set, at the clock; update
    the running totals and the ready set, and if no job is left startable
    now, advance the clock to the next decision point. A job that is not
    ready raises ValueError and leaves the state as it was."""
    instance = state.instance
    if job not in state.ready:
        if not 0 <= job < instance.num_jobs:
            raise ValueError(f"job {job} is not among the {instance.num_jobs} jobs of {instance.name}")
        k = state.job_next_op[job]
        if k >= len(instance.jobs[job]):
            raise ValueError(f"job {job} has no operation left")
        raise ValueError(f"job {job}'s next operation J{job}-op{k} is not startable at t={state.clock}")

    k = state.job_next_op[job]
    ops = instance.jobs[job]
    machine, d = ops[k].machine, ops[k].duration
    end = state.clock + d
    free_at, job_ready_at, next_machine = state.machine_free_at, state.job_ready_at, state.next_machine
    free_at[machine] = end
    job_ready_at[job] = end
    state.job_next_op[job] = k + 1
    state.machine_load[machine] -= d
    state.job_work[job] -= d
    durations = state.durations
    del durations[bisect_left(durations, d)]

    # At the clock a dispatch only takes jobs out of the ready set: the one
    # dispatched (its next machine is still `machine` here) and every other
    # job waiting for `machine`. A new list, so a caller's ready set stays.
    ready = [j for j in state.ready if next_machine[j] != machine]
    next_machine[job] = ops[k + 1].machine if k + 1 < len(ops) else -1
    if not ready and durations:
        # One pass over the jobs left: jump to the earliest time one becomes
        # startable, and collect every job startable then.
        clock = None
        for j, m in enumerate(next_machine):
            if m >= 0:
                t = job_ready_at[j]
                free = free_at[m]
                if free > t:
                    t = free
                if clock is None or t < clock:
                    clock = t
                    ready = [j]
                elif t == clock:
                    ready.append(j)
        state.clock = clock
    state.ready = ready
    return state


def _decisions(state: SimState, policy: Policy, trace: bool):
    """The simulation loop: drive `state` to the end of its episode under
    `policy`, yielding (cv, rule, pick) at each decision and stepping the
    picked job on resuming. Without `trace`, a forced decision (one ready
    job) takes it without reading the concepts or calling the policy."""
    for _ in range(len(state.durations)):
        ready = ready_set(state)
        if trace or len(ready) > 1:
            cv = extract(state)
            rule = policy(cv)
            pick = pdr.apply(rule, state)
        else:
            cv = rule = None
            pick = ready[0]
        yield cv, rule, pick
        step(state, pick)


def run_episode(instance: Instance, policy: Policy) -> ScheduleResult:
    """Run one full episode; the episode return is -makespan (reward at the end)."""
    state = reset(instance)
    starts = [[0] * len(job) for job in instance.jobs]
    decisions = []
    for cv, rule, pick in _decisions(state, policy, True):
        starts[pick][state.job_next_op[pick]] = state.clock  # a pick starts at its decision
        decisions.append((cv, rule.value))
    # machines run their operations in dispatch order, so the last one ends last
    return ScheduleResult(
        makespan=max(state.machine_free_at),
        start_times=tuple(map(tuple, starts)),
        decisions=tuple(decisions),
    )


def run_pdr(instance: Instance, rule: pdr.Heuristic) -> ScheduleResult:
    """One episode under a constant dispatching rule."""
    return run_episode(instance, lambda cv: rule)


# Cap on the decisions an EpisodeTrie takes in, forced ones included.
# scripts/trie_bytes.py puts the trie of a budget-1000 training at 227 B per
# decision on ft06 and 217 B on ta01, which needs 33k: about half a kB per
# decision with a choice (concepts, edges, and the forced jobs before it).
TRIE_MAX_NODES = 50_000


class _Branch:
    """A decision with a choice: the jobs of the forced picks that lead to it
    from the pick before it, its concepts, and one dict of edges from each
    rule tried here to the job it picks and from each picked job to the next
    decision with a choice, or to the makespan once none is left. Rules and
    job numbers never compare equal; one dict costs half what two do, and
    almost every node sees one rule and one child."""

    __slots__ = ("lead", "cv", "edges")

    def __init__(self, lead: tuple[int, ...], cv: ConceptVector, rule: pdr.Heuristic, pick: int):
        self.lead = lead
        self.cv = cv
        self.edges: dict = {rule: pick}


class EpisodeTrie:
    """Makespans of policies on one instance, cached as a trie of decisions.

    Episodes are deterministic: the state at a decision is a function of the
    jobs dispatched before it, and a policy is a pure function of the concept
    vector. A policy therefore walks the trie from the root, taking each
    node's forced lead and evaluating its own rule at the node's choice, down
    to a leaf (a cached makespan) or to the first edge no earlier episode
    took. A node keeps no state: the walk builds one only when it needs it,
    and `_catch_up` steps it along the jobs picked on the way. A rule new at
    a known node picks from its ready set, and a miss runs the rest of the
    episode from it through the same loop as `run_episode`, storing each
    decision with a choice as a node that carries the jobs of the forced
    run before it. `nodes` counts every decision taken in; once it reaches
    `TRIE_MAX_NODES` the trie stops growing, and the rest of each miss is
    simulated without being stored. A forced run that ends the episode, or
    that the cap cuts off, is counted but not stored: no walk reads it.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._top: dict = {}  # maps None to the root
        self.nodes = 0
        self.misses = 0  # evaluations that had to simulate

    def makespan(self, policy: Policy) -> int:
        """The makespan of `run_episode(instance, policy)`."""
        edges, key, path, state = self._top, None, [], None
        node = edges.get(key)
        while node is not None:
            if node.__class__ is int:
                return node
            path += node.lead
            rule, edges = policy(node.cv), node.edges
            key = edges.get(rule) if rule.__class__ is pdr.Heuristic else None
            if key is None:  # new here, or no rule (which may not even hash)
                state = self._catch_up(state, path)
                key = edges[rule] = pdr.apply(rule, state)
            path.append(key)
            node = edges.get(key)

        self.misses += 1
        state = self._catch_up(state, path)
        lead = []
        for cv, rule, pick in _decisions(state, policy, False):
            if edges is None or self.nodes >= TRIE_MAX_NODES:
                edges = None
                continue
            self.nodes += 1
            if cv is None:
                lead.append(pick)
            else:
                node = edges[key] = _Branch(tuple(lead), cv, rule, pick)
                edges, key, lead = node.edges, pick, []
        makespan = max(state.machine_free_at)
        if edges is not None:
            edges[key] = makespan
        return makespan

    def _catch_up(self, state: SimState | None, path: list[int]) -> SimState:
        """`state` (a fresh one if None) stepped along the jobs of `path` it
        has not taken; it has taken one per scheduled operation."""
        if state is None:
            state = reset(self.instance)
        for job in path[len(self.instance.durations) - len(state.durations):]:
            step(state, job)
        return state


def schedule_csv(result: ScheduleResult, instance: Instance) -> str:
    """Schedule dump as CSV rows "job,op,machine,start,end" sorted by start."""
    rows = sorted(  # (start, job, op) is unique, so machine and end never decide
        (start, j, k, op.machine, start + op.duration)
        for j, (job, starts) in enumerate(zip(instance.jobs, result.start_times))
        for k, (op, start) in enumerate(zip(job, starts))
    )
    lines = ["job,op,machine,start,end"]
    lines += [f"{j},{k},{machine},{start},{end}" for start, j, k, machine, end in rows]
    return "\n".join(lines) + "\n"


def trace_csv(result: ScheduleResult) -> str:
    """Decision trace as CSV rows "t,ld,am,ao,jd,st,action"."""
    row = "%d,%.6f,%.6f,%.6f,%.6f,%.6f,%s"  # one % per row: faster than an f-string
    lines = ["t,ld,am,ao,jd,st,action"]
    lines += [row % (t, *cv, action) for t, (cv, action) in enumerate(result.decisions)]
    return "\n".join(lines) + "\n"
