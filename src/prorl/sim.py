"""Event-driven non-delay job-shop simulator.

The schedule is built one operation per decision. At a decision point the
candidate set holds every operation whose job predecessor has completed AND
whose machine is idle at the current clock, so a chosen operation always
starts immediately. After a dispatch, if no operation is startable at the
clock but work remains, the clock jumps to the earliest time at which some
operation becomes startable (the smallest max(job ready, machine free) over
pending next-operations). Episodes therefore make exactly one policy call
per operation and produce non-delay schedules. A job starts only its next
operation, so a dispatch is named by its job: `step` takes a job number.

`SimState` holds only what the next decision reads: the clock, when each
machine and job is next free, each job's next operation, and running
totals for the concepts (remaining load per machine, remaining work per
job, and the sorted durations of the unscheduled operations, whose ends
are their bounds and whose length counts the operations left). `reset`
seeds them from the instance's cached tables and `step` updates them, so
a decision costs O(n + m) for n jobs and m machines, plus one deletion
from the sorted list: one `ready_set` pass, the concept read-out, and one
pass in `step` that both looks for a startable operation and finds the
next event. Start times are not state; `run_episode` records them.

A policy only picks a dispatching rule from the concept vector, and is a
pure function of it; `run_episode` applies that rule to the ready set and
records its name in the decision trace.

Training asks for makespans only, and most of its episodes repeat an
earlier dispatch sequence. `EpisodeTrie` caches the decisions of every
episode it runs and answers a repeat by walking them, re-simulating only
from the first new decision on; it counts at most `TRIE_MAX_NODES` decisions.
Both it and `run_episode` simulate through the one loop in `_decisions`.
A decision with a single ready op is forced: every rule picks it, so the
trie keeps only its job and neither reads concepts nor calls the policy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import pdr
from .concepts import ConceptVector, extract
from .instance import Instance


@dataclass
class SimState:
    """Mutable per-episode schedule state; owned by a single episode."""

    clock: int
    machine_free_at: list[int]
    job_next_op: list[int]
    job_ready_at: list[int]  # end of each job's last dispatched operation
    machine_load: list[int]  # unscheduled processing time per machine
    job_work: list[int]  # unscheduled processing time per job
    durations: list[int]  # of the unscheduled operations, sorted; empty at the end


class ReadyOp(NamedTuple):
    """Job `job`'s next operation, `instance.jobs[job][op_index]`, startable now."""

    job: int
    op_index: int
    arrival: int  # completion time of the job predecessor; 0 for first ops


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
        clock=0,
        machine_free_at=[0] * instance.num_machines,
        job_next_op=[0] * instance.num_jobs,
        job_ready_at=[0] * instance.num_jobs,
        machine_load=list(instance.machine_loads),
        job_work=[work[0] for work in instance.suffix_work],
        durations=list(instance.durations),
    )


def ready_set(state: SimState, instance: Instance) -> list[ReadyOp]:
    """Operations startable now, ordered by job index for determinism."""
    if not state.durations:
        raise ValueError("all operations scheduled")
    clock, free_at = state.clock, state.machine_free_at
    ready = []
    pending = zip(instance.jobs, state.job_next_op, state.job_ready_at)
    for job, (ops, k, arrival) in enumerate(pending):
        if arrival <= clock and k < len(ops) and free_at[ops[k].machine] <= clock:
            ready.append(ReadyOp(job, k, arrival))
    return ready


def step(state: SimState, instance: Instance, job: int) -> SimState:
    """Dispatch `job`'s next operation at the clock, update the running totals,
    and advance the clock to the next decision point if nothing else is
    startable now."""
    k = state.job_next_op[job]
    ops = instance.jobs[job]
    if k >= len(ops):
        raise ValueError(f"job {job} has no operation left")
    op = ops[k]
    clock, free_at, job_ready_at = state.clock, state.machine_free_at, state.job_ready_at
    if max(job_ready_at[job], free_at[op.machine]) > clock:
        raise ValueError(f"job {job}'s next operation J{job}-op{k} is not startable at t={clock}")

    d = op.duration
    end = clock + d
    free_at[op.machine] = end
    job_ready_at[job] = end
    state.job_next_op[job] = k + 1
    state.machine_load[op.machine] -= d
    state.job_work[job] -= d
    durations = state.durations
    del durations[bisect_left(durations, d)]

    # One pass over the jobs' next operations: stay at the clock if any is
    # startable, else jump to the earliest time one becomes startable.
    next_time = None
    for job_ops, next_op, t in zip(instance.jobs, state.job_next_op, job_ready_at):
        if next_op < len(job_ops):
            free = free_at[job_ops[next_op].machine]
            if free > t:
                t = free
            if t <= clock:
                return state
            if next_time is None or t < next_time:
                next_time = t
    if next_time is not None:
        state.clock = next_time
    return state


def _decisions(state: SimState, instance: Instance, policy: Policy, trace: bool):
    """The simulation loop: drive `state` to the end of its episode under
    `policy`, yielding (ready, cv, rule, pick) at each decision and stepping
    `pick`'s job on resuming. Without `trace`, a forced decision (one ready
    op) takes it without reading the concepts or calling the policy."""
    for _ in range(len(state.durations)):
        ready = ready_set(state, instance)
        if trace or len(ready) > 1:
            cv = extract(state, instance, ready)
            rule = policy(cv)
            pick = pdr.apply(rule, ready, instance)
        else:
            cv = rule = None
            pick = ready[0]
        yield ready, cv, rule, pick
        step(state, instance, pick.job)


def run_episode(instance: Instance, policy: Policy) -> ScheduleResult:
    """Run one full episode; the episode return is -makespan (reward at the end)."""
    state = reset(instance)
    starts = [[0] * len(job) for job in instance.jobs]
    decisions = []
    for _, cv, rule, pick in _decisions(state, instance, policy, True):
        starts[pick.job][pick.op_index] = state.clock  # a pick starts at its decision
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
# scripts/trie_bytes.py puts the trie of a budget-1000 training at 344 B per
# decision on ft06 and 354 B on ta01, which needs 33k: 0.8-0.9 kB per decision
# with a choice (ready set, concepts, edges, and the forced jobs before it).
TRIE_MAX_NODES = 50_000


class _Branch:
    """A decision with a choice: the jobs of the forced picks that lead to it
    from the pick before it, its ready set and concepts, and one dict of edges
    from each rule tried here to the op of `ready` it picks and from each
    picked job to the next decision with a choice, or to the makespan once
    none is left. Rules and job numbers never compare equal; one dict costs
    half what two do, and almost every node sees one rule and one child."""

    __slots__ = ("lead", "ready", "cv", "edges")

    def __init__(self, lead: tuple[int, ...], ready: list[ReadyOp], cv: ConceptVector,
                 rule: pdr.Heuristic, pick: ReadyOp):
        self.lead = lead
        self.ready = ready
        self.cv = cv
        self.edges: dict = {rule: pick}


class EpisodeTrie:
    """Makespans of policies on one instance, cached as a trie of decisions.

    Episodes are deterministic: the state at a decision is a function of the
    ops dispatched before it, and a policy is a pure function of the concept
    vector. A policy therefore walks the trie from the root, taking each
    node's forced lead and evaluating its own rule at the node's choice, down
    to a leaf (a cached makespan) or to the first edge no earlier episode
    took. There the state is rebuilt by stepping the jobs picked on the way
    from `reset`, and the rest of the episode runs through the same loop as
    `run_episode`, storing each decision with a choice as a node that
    carries the jobs of the forced run before it. `nodes` counts every
    decision taken in; once it reaches `TRIE_MAX_NODES` the trie stops
    growing, and the rest of each miss is simulated without being stored. A
    forced run that ends the episode, or that the cap cuts off, is counted
    but not stored: no walk reads it.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._top: dict = {}  # maps None to the root
        self.nodes = 0
        self.misses = 0  # evaluations that had to simulate

    def makespan(self, policy: Policy) -> int:
        """The makespan of `run_episode(instance, policy)`."""
        instance = self.instance
        edges, key, path = self._top, None, []
        node = edges.get(key)
        while node is not None:
            if node.__class__ is int:
                return node
            path += node.lead
            rule, edges = policy(node.cv), node.edges
            pick = edges.get(rule)
            if pick.__class__ is not ReadyOp:  # a rule new here, or a job number
                pick = edges[rule] = pdr.apply(rule, node.ready, instance)
            key = pick.job
            path.append(key)
            node = edges.get(key)

        self.misses += 1
        state = reset(instance)
        for job in path:
            step(state, instance, job)
        lead = []
        for ready, cv, rule, pick in _decisions(state, instance, policy, False):
            if edges is None or self.nodes >= TRIE_MAX_NODES:
                edges = None
                continue
            self.nodes += 1
            if cv is None:
                lead.append(pick.job)
            else:
                node = edges[key] = _Branch(tuple(lead), ready, cv, rule, pick)
                edges, key, lead = node.edges, pick.job, []
        makespan = max(state.machine_free_at)
        if edges is not None:
            edges[key] = makespan
        return makespan


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
    lines = ["t,ld,am,ao,jd,st,action"]
    for t, (cv, action) in enumerate(result.decisions):
        ld, am, ao, jd, st = cv
        lines.append(f"{t},{ld:.6f},{am:.6f},{ao:.6f},{jd:.6f},{st:.6f},{action}")
    return "\n".join(lines) + "\n"
