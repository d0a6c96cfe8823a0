"""Simulator semantics: readiness, stepping, episodes, feasibility."""

from __future__ import annotations

import copy
import importlib.util
import random

import pytest

from conftest import DATA_DIR, all_nondelay_makespans, random_instance, verify_feasible
from prorl import sim
from prorl.dsl import make_policy, random_program
from prorl.concepts import extract
from prorl.instance import Instance, Operation, parse_taillard
from prorl.pdr import HEURISTICS, Heuristic, apply, random_rule_policy
from prorl.sim import run_pdr

SCRIPTS_DIR = DATA_DIR.parent / "scripts"


def test_reset(inst_2x2):
    state = sim.reset(inst_2x2)
    assert state.clock == 0
    assert state.machine_free_at == [0, 0]
    assert state.job_next_op == [0, 0]
    assert state.job_ready_at == [0, 0]
    assert state.machine_load == [7, 4]
    assert state.job_work == [5, 6]
    assert state.durations == [2, 2, 3, 4]
    assert sim.reset(inst_2x2) == state  # idempotent


def test_ready_set_initial(inst_2x2):
    ready = sim.ready_set(sim.reset(inst_2x2), inst_2x2)
    ops = [(r.job, r.op_index, inst_2x2.jobs[r.job][r.op_index].duration) for r in ready]
    assert ops == [(0, 0, 3), (1, 0, 2)]
    assert all(r.arrival == 0 for r in ready)


def test_ready_set_after_one_dispatch(inst_2x2):
    state = sim.reset(inst_2x2)
    ready = sim.ready_set(state, inst_2x2)
    sim.step(state, inst_2x2, ready[1].job)  # J1-op0 on M1, duration 2
    assert state.machine_free_at[1] == 2
    assert state.job_ready_at[1] == 2
    remaining = sim.ready_set(state, inst_2x2)
    assert [(r.job, r.op_index) for r in remaining] == [(0, 0)]


def test_ready_set_error_when_everything_scheduled(inst_1x1):
    state = sim.reset(inst_1x1)
    sim.step(state, inst_1x1, sim.ready_set(state, inst_1x1)[0].job)
    with pytest.raises(ValueError):
        sim.ready_set(state, inst_1x1)


def test_clock_advance_matches_hand_simulation(inst_2x2):
    # hand-simulated trace: place both first ops at t=0; J0-op1 needs M1 (free
    # at 2) but is job-ready at 3; J1-op1 needs M0 (free at 3) and is
    # job-ready at 2 -> next decision at t=3 with both ops ready
    state = sim.reset(inst_2x2)
    sim.step(state, inst_2x2, sim.ready_set(state, inst_2x2)[0].job)
    sim.step(state, inst_2x2, sim.ready_set(state, inst_2x2)[0].job)
    assert state.clock == 3
    ready = sim.ready_set(state, inst_2x2)
    assert [(r.job, r.op_index) for r in ready] == [(0, 1), (1, 1)]


def test_step_rejects_non_ready_pick(inst_2x2):
    state = sim.reset(inst_2x2)
    ready = sim.ready_set(state, inst_2x2)
    sim.step(state, inst_2x2, ready[0].job)
    with pytest.raises(ValueError):
        sim.step(state, inst_2x2, ready[0].job)  # stale pick: J0 already advanced


def test_step_rejects_a_job_with_no_operation_left(inst_2x2):
    state = sim.reset(inst_2x2)
    for _ in range(len(inst_2x2.durations)):
        sim.step(state, inst_2x2, sim.ready_set(state, inst_2x2)[0].job)
    done = copy.deepcopy(state)
    for job in (0, 1):
        with pytest.raises(ValueError, match=f"^job {job} has no operation left"):
            sim.step(state, inst_2x2, job)
    assert state == done


def test_step_rejects_a_job_whose_next_operation_is_not_startable():
    # J0 = (M0,5) holds M0 from t = 0 while J2 = (M1,1) keeps the clock at 0:
    # J1 = (M0,1), (M1,1) is waiting for its machine, and after J1's first
    # operation its second is waiting for the first to end
    inst = Instance("busy", 3, 2, (
        (Operation(0, 5),),
        (Operation(0, 1), Operation(1, 1)),
        (Operation(1, 1),),
    ))
    state = sim.reset(inst)
    sim.step(state, inst, 0)
    assert state.clock == 0 and [r.job for r in sim.ready_set(state, inst)] == [2]
    before = copy.deepcopy(state)
    with pytest.raises(ValueError, match=r"^job 1's next operation J1-op0 is not startable at t=0"):
        sim.step(state, inst, 1)
    assert state == before
    state = sim.reset(inst)
    sim.step(state, inst, 1)
    assert state.clock == 0 and [r.job for r in sim.ready_set(state, inst)] == [2]
    with pytest.raises(ValueError, match=r"^job 1's next operation J1-op1 is not startable at t=0"):
        sim.step(state, inst, 1)


def test_run_episode_spt_reaches_seven(inst_2x2):
    # the enumeration oracle shows 7 is the only non-delay outcome here,
    # which equals the M0 workload bound 3 + 4
    assert all_nondelay_makespans(inst_2x2) == {7}
    result = run_pdr(inst_2x2, Heuristic.SPT)
    assert result.makespan == 7
    assert len(result.decisions) == 4


def test_run_episode_single_op(inst_1x1):
    result = run_pdr(inst_1x1, Heuristic.MWR)
    assert result.makespan == 5
    assert result.start_times == ((0,),)


def test_episode_decision_count_and_labels(inst_2x2):
    result = run_pdr(inst_2x2, Heuristic.FIFO)
    assert len(result.decisions) == len(inst_2x2.durations)
    assert all(label == "FIFO" for _, label in result.decisions)


def test_determinism(inst_2x2):
    a = run_pdr(inst_2x2, Heuristic.MOR)
    b = run_pdr(inst_2x2, Heuristic.MOR)
    assert a == b


def test_policy_picks_a_rule_and_the_episode_applies_it():
    # a hand-driven loop applying each rule must give the run_episode schedule
    rng = random.Random(13)
    for _ in range(50):
        inst = random_instance(rng)
        for rule in HEURISTICS:
            result = sim.run_episode(inst, lambda cv: rule)
            assert result == run_pdr(inst, rule)
            assert {label for _, label in result.decisions} == {rule.value}
            state = sim.reset(inst)
            starts = [[None] * len(job) for job in inst.jobs]
            for _ in range(len(inst.durations)):
                pick = apply(rule, sim.ready_set(state, inst), inst)
                starts[pick.job][pick.op_index] = state.clock  # a pick starts at its decision
                sim.step(state, inst, pick.job)
            assert result.start_times == tuple(map(tuple, starts))


def _unscheduled_durations(state, inst) -> list[int]:
    """The durations of the unscheduled operations, sorted, read afresh
    from each job's next operation."""
    return sorted(op.duration for job, k in zip(inst.jobs, state.job_next_op) for op in job[k:])


def _taillard(n: int, m: int, time_seed: int, machine_seed: int):
    """The n x m instance `scripts/make_taillard.py` prints for these seeds."""
    spec = importlib.util.spec_from_file_location("make_taillard", SCRIPTS_DIR / "make_taillard.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    durations, machines = script.generate(n, m, time_seed, machine_seed)
    return parse_taillard(script.render("gen", n, m, durations, machines), f"gen{n}x{m}")


def test_state_durations_are_the_sorted_unscheduled_ones():
    # after every step the sorted list equals a fresh count over the jobs'
    # unscheduled suffixes, on small random instances and on 50x20 and 100x20
    rng = random.Random(14)
    instances = [random_instance(rng, max_jobs=6, max_machines=5) for _ in range(100)]
    instances += [_taillard(50, 20, 12345, 67890), _taillard(100, 20, 12345, 67890)]
    for inst in instances:
        state = sim.reset(inst)
        assert state.durations == _unscheduled_durations(state, inst)
        for _ in range(len(inst.durations)):
            ready = sim.ready_set(state, inst)
            sim.step(state, inst, ready[rng.randrange(len(ready))].job)
            assert state.durations == _unscheduled_durations(state, inst)
        assert state.durations == []


def test_random_rule_policy_labels_follow_the_seeded_draws(inst_2x2):
    result = sim.run_episode(inst_2x2, random_rule_policy(random.Random(5)))
    rng = random.Random(5)
    expected = [rng.choice(HEURISTICS).value for _ in range(len(inst_2x2.durations))]
    assert [label for _, label in result.decisions] == expected


def test_verify_feasible_on_episode_output(inst_2x2):
    result = run_pdr(inst_2x2, Heuristic.LOR)
    assert verify_feasible(result, inst_2x2)


def test_verify_rejects_machine_overlap(inst_2x2):
    # J0-op0 and J1-op1 share M0; forcing both to start at 0 overlaps
    bad = sim.ScheduleResult(makespan=7, start_times=((0, 3), (0, 0)), decisions=())
    assert not verify_feasible(bad, inst_2x2)


def test_verify_rejects_precedence_violation(inst_2x2):
    # J0-op1 starting at 1 begins before J0-op0 (start 0, duration 3) ends
    bad = sim.ScheduleResult(makespan=7, start_times=((0, 1), (0, 3)), decisions=())
    assert not verify_feasible(bad, inst_2x2)


def test_verify_rejects_wrong_makespan(inst_2x2):
    good = run_pdr(inst_2x2, Heuristic.SPT)
    bad = sim.ScheduleResult(makespan=good.makespan + 1, start_times=good.start_times, decisions=())
    assert not verify_feasible(bad, inst_2x2)


def test_feasibility_and_lower_bound_random_policies():
    rng = random.Random(11)
    for _ in range(300):
        inst = random_instance(rng)
        rule = rng.choice(list(Heuristic))
        result = run_pdr(inst, rule)
        assert verify_feasible(result, inst)
        ops = [op for job in inst.jobs for op in job]
        machine_bound = max(sum(op.duration for op in ops if op.machine == m) for m in range(inst.num_machines))
        job_bound = max(sum(op.duration for op in job) for job in inst.jobs)
        assert result.makespan >= max(machine_bound, job_bound)


def test_non_delay_property():
    # no machine idles at a time when an operation for it was startable:
    # replay each schedule and check starts happen at the decision clock
    rng = random.Random(12)
    for _ in range(100):
        inst = random_instance(rng, square=True)
        result = run_pdr(inst, Heuristic.SPT)
        state = sim.reset(inst)
        for _ in range(len(inst.durations)):
            ready = sim.ready_set(state, inst)
            assert ready, "decision point with an empty ready set"
            scheduled_now = [
                r for r in ready if result.start_times[r.job][r.op_index] == state.clock
            ]
            assert scheduled_now, "machine left idle while an operation was startable"
            sim.step(state, inst, scheduled_now[0].job)


def test_schedule_csv_sorted(inst_2x2):
    result = run_pdr(inst_2x2, Heuristic.SPT)
    lines = sim.schedule_csv(result, inst_2x2).strip().splitlines()
    assert lines[0] == "job,op,machine,start,end"
    starts = [int(line.split(",")[3]) for line in lines[1:]]
    assert starts == sorted(starts)
    assert len(lines) == 1 + len(inst_2x2.durations)


def test_trace_csv_shape(inst_2x2):
    result = run_pdr(inst_2x2, Heuristic.SPT)
    lines = sim.trace_csv(result).strip().splitlines()
    assert lines[0] == "t,ld,am,ao,jd,st,action"
    assert len(lines) == 1 + len(inst_2x2.durations)
    assert lines[1].endswith(",SPT")


def _trie_queries(rng: random.Random):
    """Random small instances, each with random program policies queried in
    shuffled, repeated order; yields (instance, policies, queries)."""
    for _ in range(60):
        inst = random_instance(rng, max_jobs=4, max_machines=3, max_duration=9)
        policies = [make_policy(random_program(rng)) for _ in range(8)]
        policies += [lambda cv, rule=rule: rule for rule in HEURISTICS]
        queries = policies * 3
        rng.shuffle(queries)
        yield inst, policies, queries


def test_trie_makespans_equal_run_episode():
    for inst, policies, queries in _trie_queries(random.Random(80)):
        trie = sim.EpisodeTrie(inst)
        for policy in queries:
            assert trie.makespan(policy) == sim.run_episode(inst, policy).makespan
        # a policy already queried is answered from the trie
        assert 1 <= trie.misses <= len(policies)
        assert trie.nodes <= trie.misses * len(inst.durations)


@pytest.mark.parametrize("cap", [0, 1, 5])
def test_trie_past_its_node_cap_simulates_plainly(monkeypatch, cap):
    monkeypatch.setattr(sim, "TRIE_MAX_NODES", cap)
    for inst, _, queries in _trie_queries(random.Random(81)):
        trie = sim.EpisodeTrie(inst)
        for policy in queries:
            assert trie.makespan(policy) == sim.run_episode(inst, policy).makespan
        assert trie.nodes <= cap
        if cap == 0:
            assert trie.misses == len(queries)


def _picks(inst, policy) -> list[tuple[int, int]]:
    """The job picked at each decision of `run_episode(inst, policy)`, with
    the number of ops that were ready there."""
    state, picks = sim.reset(inst), []
    for _ in range(len(inst.durations)):
        ready = sim.ready_set(state, inst)
        pick = apply(policy(extract(state, inst, ready)), ready, inst)
        picks.append((pick.job, len(ready)))
        sim.step(state, inst, pick.job)
    return picks


def _choices(inst, policy) -> tuple[int, int]:
    """Decisions of `run_episode(inst, policy)` with more than one ready op,
    and those with exactly one."""
    choices = sum(n > 1 for _, n in _picks(inst, policy))
    return choices, len(inst.durations) - choices


@pytest.mark.parametrize("cap", [sim.TRIE_MAX_NODES, 0, 1, 5, 17])
def test_trie_nodes_count_the_distinct_decisions_up_to_the_cap(monkeypatch, cap):
    # a decision is identified by the jobs picked before it, so the trie has
    # taken in one per distinct prefix of the episodes queried, forced
    # decisions included, whether it stores them as nodes or not
    monkeypatch.setattr(sim, "TRIE_MAX_NODES", cap)
    for inst, _, queries in _trie_queries(random.Random(83)):
        trie, prefixes = sim.EpisodeTrie(inst), set()
        for policy in queries:
            trie.makespan(policy)
            jobs = tuple(job for job, _ in _picks(inst, policy))
            prefixes.update(jobs[:i] for i in range(len(jobs)))
            assert trie.nodes == min(cap, len(prefixes))


@pytest.mark.parametrize("cap", [sim.TRIE_MAX_NODES, 0])
def test_trie_calls_the_policy_once_per_choice(monkeypatch, cap):
    # a forced decision (one ready op) never reaches the policy, walked or
    # simulated; every decision with a choice reaches it exactly once
    monkeypatch.setattr(sim, "TRIE_MAX_NODES", cap)
    forced_seen = 0
    for inst, policies, _ in _trie_queries(random.Random(82)):
        trie = sim.EpisodeTrie(inst)
        for policy in policies:
            calls = []

            def counting(cv, policy=policy):
                calls.append(cv)
                return policy(cv)

            choices, forced = _choices(inst, policy)
            forced_seen += forced
            for _ in range(2):  # the first query may simulate; the repeat walks
                calls.clear()
                assert trie.makespan(counting) == sim.run_episode(inst, policy).makespan
                assert len(calls) == choices
    assert forced_seen > 0
