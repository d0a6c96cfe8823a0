"""Dispatching rule keys and tie-breaking."""

from __future__ import annotations

import pickle
import random

import pytest

from conftest import all_nondelay_makespans, random_instance
from prorl import sim
from prorl.instance import Instance, Operation, parse_standard
from prorl.pdr import Heuristic, apply
from prorl.sim import ReadyOp, run_pdr


def ready(inst):
    return sim.ready_set(sim.reset(inst), inst)


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
    pick = apply(Heuristic.SPT, ready(inst_2x2), inst_2x2)
    assert (pick.job, inst_2x2.jobs[pick.job][pick.op_index].duration) == (1, 2)


def test_mwr_picks_heavier_job(inst_2x2):
    # remaining work: J0 = 3 + 2 = 5, J1 = 2 + 4 = 6
    pick = apply(Heuristic.MWR, ready(inst_2x2), inst_2x2)
    assert pick.job == 1


def test_mor_tie_breaks_to_lowest_job(inst_2x2):
    pick = apply(Heuristic.MOR, ready(inst_2x2), inst_2x2)
    assert pick.job == 0


def test_count_rules_on_jobs_of_uneven_length():
    # J0 = (M0,1)(M1,1)(M2,1) has three operations and J1 = (M0,1) one; both
    # start on M0, so whichever waits is still ready at t = 1
    inst = Instance("uneven", 2, 3, (
        (Operation(0, 1), Operation(1, 1), Operation(2, 1)),
        (Operation(0, 1),),
    ))
    state = sim.reset(inst)
    first = sim.ready_set(state, inst)
    assert [(c.job, c.op_index) for c in first] == [(0, 0), (1, 0)]
    assert apply(Heuristic.MOR, first, inst).job == 0  # 3 operations left against 1
    assert apply(Heuristic.LOR, first, inst).job == 1
    sim.step(state, inst, first[0].job)
    later = sim.ready_set(state, inst)
    assert state.clock == 1 and [(c.job, c.op_index) for c in later] == [(0, 1), (1, 0)]
    assert apply(Heuristic.MOR, later, inst).job == 0  # 2 left against 1
    assert apply(Heuristic.LOR, later, inst).job == 1
    # J0's last operation leaves 1, as J1's only one does: a tie, to job 0
    last = [ReadyOp(0, 2, 2), ReadyOp(1, 0, 0)]
    assert apply(Heuristic.MOR, last, inst).job == apply(Heuristic.LOR, last, inst).job == 0
    assert run_pdr(inst, Heuristic.MOR).start_times == ((0, 1, 2), (1,))
    assert run_pdr(inst, Heuristic.LOR).start_times == ((1, 2, 3), (0,))


def test_apply_rejects_empty_ready(inst_2x2):
    with pytest.raises(ValueError):
        apply(Heuristic.SPT, [], inst_2x2)


@pytest.mark.parametrize("rule", ["MWR", "LOR", None, 3, 1])
def test_apply_rejects_a_rule_that_is_no_heuristic(ft06, rule):
    # a rule's name is not the rule: "MWR" once fell through to LOR's key,
    # so the trie gave LOR's 68 on ft06 where MWR makes 61, and
    # run_episode failed later with an AttributeError; 1 is a job number,
    # which a trie node keys in the same dict as its rules
    with pytest.raises(ValueError, match="not a dispatching rule"):
        apply(rule, ready(ft06), ft06)
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
    r = ready(inst_2x2)
    picks = {apply(Heuristic.FIFO, r, inst_2x2) for _ in range(5)}
    assert len(picks) == 1


def test_chosen_always_in_ready_set():
    rng = random.Random(21)
    for _ in range(200):
        inst = random_instance(rng)
        state = sim.reset(inst)
        r = sim.ready_set(state, inst)
        for rule in Heuristic:
            assert apply(rule, r, inst) in r


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
                pick = apply(rule, sim.ready_set(state, instance), instance)
                seq.append((pick.job, pick.op_index))
                sim.step(state, instance, pick.job)
            return seq

        assert dispatch_sequence(inst) == dispatch_sequence(big)


def test_spt_on_single_machine_sorts_by_duration():
    # three jobs, one machine each: SPT must dispatch ascending durations
    inst = parse_standard("3 1\n0 7\n0 2\n0 5", "single")
    state = sim.reset(inst)
    order = []
    for _ in range(3):
        pick = apply(Heuristic.SPT, sim.ready_set(state, inst), inst)
        order.append(inst.jobs[pick.job][pick.op_index].duration)
        sim.step(state, inst, pick.job)
    assert order == [2, 5, 7]
