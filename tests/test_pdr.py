"""Dispatching rule keys and tie-breaking."""

from __future__ import annotations

import pickle
import random

import pytest

from conftest import all_nondelay_makespans, random_instance
from prorl import sim
from prorl.instance import Instance, Operation, parse_standard
from prorl.pdr import Heuristic, apply
from prorl.sim import run_pdr


def test_parse_round_trip_case_insensitive():
    for rule in Heuristic:
        assert Heuristic.parse(rule.value.lower()) is rule
        assert Heuristic.parse(rule.value) is rule
    with pytest.raises(ValueError):
        Heuristic.parse("xyz")


def test_rules_key_dicts_by_identity():
    # rules hash by identity at C speed; every way of naming a rule must
    # still find the entry, in a dict that also holds job numbers (the
    # episode trie's edges)
    assert Heuristic.__hash__ is object.__hash__
    table = {rule: index for index, rule in enumerate(Heuristic)}
    table.update({index: rule for index, rule in enumerate(Heuristic)})
    assert len(table) == 2 * len(Heuristic)
    for index, rule in enumerate(Heuristic):
        for same in (rule, Heuristic(rule.value), Heuristic[rule.name],
                     Heuristic.parse(rule.value.lower()), pickle.loads(pickle.dumps(rule))):
            assert same is rule and hash(same) == hash(rule)
            assert table[same] == index and table.get(same) == index
        assert table[index] is rule
    assert len({rule: None for rule in list(Heuristic) * 2}) == len(Heuristic)


def test_spt_picks_shorter(inst_2x2):
    pick = apply(Heuristic.SPT, sim.reset(inst_2x2))
    assert (pick, inst_2x2.jobs[pick][0].duration) == (1, 2)


def test_mwr_picks_heavier_job(inst_2x2):
    # remaining work: J0 = 3 + 2 = 5, J1 = 2 + 4 = 6
    pick = apply(Heuristic.MWR, sim.reset(inst_2x2))
    assert pick == 1


def test_mor_tie_breaks_to_lowest_job(inst_2x2):
    pick = apply(Heuristic.MOR, sim.reset(inst_2x2))
    assert pick == 0


def test_count_rules_on_jobs_of_uneven_length():
    # J0 = (M0,1)(M1,1)(M2,1) has three operations and J1 = (M0,1) one; both
    # start on M0, so whichever waits is still ready at t = 1
    inst = Instance("uneven", 2, 3, (
        (Operation(0, 1), Operation(1, 1), Operation(2, 1)),
        (Operation(0, 1),),
    ))
    state = sim.reset(inst)
    first = sim.ready_set(state)
    assert [(j, state.job_next_op[j]) for j in first] == [(0, 0), (1, 0)]
    assert apply(Heuristic.MOR, state) == 0  # 3 operations left against 1
    assert apply(Heuristic.LOR, state) == 1
    sim.step(state, first[0])
    later = sim.ready_set(state)
    assert state.clock == 1 and [(j, state.job_next_op[j]) for j in later] == [(0, 1), (1, 0)]
    assert apply(Heuristic.MOR, state) == 0  # 2 left against 1
    assert apply(Heuristic.LOR, state) == 1
    # J0's last operation waits for its second, which ends at t = 2, so J1
    # is left alone in the ready set
    sim.step(state, later[0])
    assert state.job_next_op == [2, 0] and state.job_ready_at == [2, 0]
    assert sim.ready_set(state) == [1]
    assert apply(Heuristic.MOR, state) == apply(Heuristic.LOR, state) == 1
    assert run_pdr(inst, Heuristic.MOR).start_times == ((0, 1, 2), (1,))
    assert run_pdr(inst, Heuristic.LOR).start_times == ((1, 2, 3), (0,))
    # J0's last operation leaves 1, as J1's only one does: a tie, to job 0.
    # J2 = (M3,2) holds M3, J1's machine, until t = 2, when J0's last
    # operation is startable too
    inst = Instance("uneven3", 3, 4, inst.jobs[:1] + ((Operation(3, 1),), (Operation(3, 2),)))
    state = sim.reset(inst)
    for job in (2, 0, 0):
        sim.step(state, job)
    assert state.clock == 2 and state.job_next_op == [2, 0, 1]
    assert sim.ready_set(state) == [0, 1]
    assert apply(Heuristic.MOR, state) == apply(Heuristic.LOR, state) == 0


def test_apply_rejects_empty_ready(inst_2x2):
    state = sim.reset(inst_2x2)
    for _ in range(len(inst_2x2.durations)):
        sim.step(state, state.ready[0])
    assert state.ready == []
    with pytest.raises(ValueError):
        apply(Heuristic.SPT, state)


@pytest.mark.parametrize("rule", ["MWR", "LOR", None, 3, 1, []])
def test_apply_rejects_a_rule_that_is_no_heuristic(ft06, rule):
    # a rule's name is not the rule: "MWR" once fell through to LOR's key,
    # so the trie gave LOR's 68 on ft06 where MWR makes 61, and
    # run_episode failed later with an AttributeError; 1 is a job number,
    # which a trie node keys in the same dict as its rules; [] cannot key a
    # dict at all, and a known node once raised TypeError on it
    with pytest.raises(ValueError, match="not a dispatching rule"):
        apply(rule, sim.reset(ft06))
    lone = sim.reset(ft06)  # the first state with one ready job, dispatching the lowest
    while len(lone.ready) > 1:
        sim.step(lone, lone.ready[0])
    assert len(lone.ready) == 1
    with pytest.raises(ValueError, match="not a dispatching rule"):
        apply(rule, lone)  # a lone job is checked too
    policy = lambda cv: rule
    with pytest.raises(ValueError, match="not a dispatching rule"):
        sim.run_episode(ft06, policy)
    trie = sim.EpisodeTrie(ft06)
    with pytest.raises(ValueError, match="not a dispatching rule"):
        trie.makespan(policy)  # an empty trie simulates the episode
    assert trie.makespan(lambda cv: Heuristic.MWR) == 61
    with pytest.raises(ValueError, match="not a dispatching rule"):
        trie.makespan(policy)  # a known episode is walked
    assert trie.makespan(lambda cv: Heuristic.MWR) == 61


def test_apply_is_pure(inst_2x2):
    state = sim.reset(inst_2x2)
    picks = {apply(Heuristic.FIFO, state) for _ in range(5)}
    assert len(picks) == 1


def test_chosen_always_in_ready_set():
    rng = random.Random(21)
    for _ in range(200):
        inst = random_instance(rng)
        state = sim.reset(inst)
        r = sim.ready_set(state)
        for rule in Heuristic:
            assert apply(rule, state) in r


def test_all_rules_reach_seven_on_2x2(inst_2x2):
    assert all_nondelay_makespans(inst_2x2) == {7}
    for rule in Heuristic:
        assert run_pdr(inst_2x2, rule).makespan == 7


def scaled(inst: Instance, factor: int) -> Instance:
    jobs = tuple(
        tuple(Operation(op.machine, op.duration * factor) for op in job) for job in inst.jobs
    )
    return Instance(inst.name, inst.num_jobs, inst.num_machines, jobs)


@pytest.mark.parametrize("rule", [Heuristic.MOR, Heuristic.LOR])
def test_count_rules_invariant_under_duration_scaling(rule):
    # MOR/LOR keys are counts: scaling durations leaves every decision the
    # same, so the whole dispatch sequence (job, op) must be identical
    rng = random.Random(22)
    for _ in range(50):
        inst = random_instance(rng, square=True)
        big = scaled(inst, 3)

        def dispatch_sequence(instance):
            seq = []
            state = sim.reset(instance)
            for _ in range(len(instance.durations)):
                pick = apply(rule, state)
                seq.append((pick, state.job_next_op[pick]))
                sim.step(state, pick)
            return seq

        assert dispatch_sequence(inst) == dispatch_sequence(big)


def test_spt_on_single_machine_sorts_by_duration():
    # three jobs, one machine each: SPT must dispatch ascending durations
    inst = parse_standard("3 1\n0 7\n0 2\n0 5", "single")
    state = sim.reset(inst)
    order = []
    for _ in range(3):
        pick = apply(Heuristic.SPT, state)
        order.append(inst.jobs[pick][state.job_next_op[pick]].duration)
        sim.step(state, pick)
    assert order == [2, 5, 7]
