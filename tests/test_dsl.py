"""Program representation: interpreter, generation, mutation, round-trips."""

from __future__ import annotations

import random

import pytest

from conftest import (
    all_nondelay_makespans,
    condition_value,
    evaluate_counted,
    get_params,
    random_instance,
    tree_size,
    verify_feasible,
)
from prorl import sim
from prorl.concepts import ConceptVector
from prorl.dsl import (
    MAX_DEPTH,
    MAX_TOKENS,
    If,
    PolicyFormatError,
    Program,
    compile_policy,
    depth,
    deserialize,
    make_policy,
    mutate,
    pretty_print,
    random_program,
    serialize,
    set_params,
)
from prorl.pdr import HEURISTICS, Heuristic


def cv(ld=0.0, am=0.0, ao=0.0, jd=0.0, st=0.0) -> ConceptVector:
    return ConceptVector(ld=ld, am=am, ao=ao, jd=jd, st=st)


def random_cv(rng: random.Random) -> ConceptVector:
    return ConceptVector(*(rng.random() for _ in range(5)))


def example_policy() -> Program:
    """The example policy: MWR / LOR / SPT behind two linear conditions."""
    inner = If(
        (-1.11, -0.24, 1.66, 1.35, -1.98, 1.46),
        Heuristic.LOR,
        Heuristic.SPT,
    )
    return Program(
        If((1.00, 0.79, -0.84, 1.20, -0.84, -1.84), Heuristic.MWR, inner)
    )


def test_evaluate_leaf():
    program = Program(Heuristic.SPT)
    assert make_policy(program)(cv()) is Heuristic.SPT
    assert make_policy(program)(cv(1, 1, 1, 1, 1)) is Heuristic.SPT


def test_evaluate_constant_true_condition():
    program = Program(
        If((1.0, 0, 0, 0, 0, 0), Heuristic.MWR, Heuristic.SPT)
    )
    assert make_policy(program)(cv()) is Heuristic.MWR


def test_evaluate_zero_routes_to_else():
    # strict inequality: a condition value of exactly 0 takes the else branch
    program = Program(
        If((0.0, 0, 0, 0, 0, 0), Heuristic.MWR, Heuristic.SPT)
    )
    assert make_policy(program)(cv()) is Heuristic.SPT


def test_example_policy_routing_hand_evaluated():
    # at (ld, am, ao, jd, st) = (0, 0, 0, 0, 1): first condition
    # 1.00 - 1.84 = -0.84 <= 0, second condition -1.11 + 1.46 = 0.35 > 0
    program = example_policy()
    heuristic, conditions = evaluate_counted(program, cv(st=1.0))
    assert heuristic is Heuristic.LOR
    assert conditions == 2


def test_policy_on_2x2(inst_2x2):
    assert all_nondelay_makespans(inst_2x2) == {7}
    result = sim.run_episode(inst_2x2, make_policy(Program(Heuristic.SPT)))
    assert result.makespan == 7


def test_example_policy_runs_on_benchmark(ft06):
    result = sim.run_episode(ft06, make_policy(example_policy()))
    assert verify_feasible(result, ft06)


def test_equal_programs_give_identical_results(ft06):
    a, b = example_policy(), example_policy()
    assert a == b
    assert sim.run_episode(ft06, make_policy(a)) == sim.run_episode(ft06, make_policy(b))


def test_token_count_examples():
    assert Program(Heuristic.SPT).tokens == 1
    two_leaf = Program(
        If((1, 0, 0, 0, 0, 0), Heuristic.SPT, Heuristic.MOR)
    )
    assert two_leaf.tokens == 10


def full_tree(levels: int) -> Program:
    def build(level):
        if level == 1:
            return Heuristic.SPT
        return If((0.5, 0, 0, 0, 0, 0), build(level - 1), build(level - 1))

    return Program(build(levels))


def test_deepest_legal_tree_fits_both_limits():
    program = full_tree(MAX_DEPTH)
    assert program.n_params == 7 * 6
    assert program.tokens == 64
    assert program.tokens <= MAX_TOKENS
    assert program.depth == MAX_DEPTH


def test_program_records_the_size_of_its_tree():
    # the recorded depth, tokens and parameter count equal fresh tree walks
    # for generated, mutated, deserialized and hand-built programs, and a
    # parameter vector of any other length is rejected
    rng = random.Random(41)
    programs = [full_tree(MAX_DEPTH), example_policy(), Program(Heuristic.SPT)]
    for _ in range(300):
        program = random_program(rng)
        mutant = mutate(mutate(program, rng), rng)
        programs += [program, mutant, deserialize(serialize(mutant))]
    for program in programs:
        assert (program.depth, program.tokens, program.n_params) == tree_size(program)
        for off in (-6, -1, 1, 6) if program.n_params else (1, 6):  # a row or a weight off
            params = (0.5,) * (program.n_params + off)
            with pytest.raises(ValueError, match=f"expected {program.n_params} parameters"):
                compile_policy(program, params)
            with pytest.raises(ValueError, match=f"expected {program.n_params} parameters"):
                set_params(program, params)
    assert tree_size(full_tree(MAX_DEPTH)) == (MAX_DEPTH, 64, 42)
    assert {p.n_params // 6 for p in programs} == set(range(8))  # 0 to 7 conditions


def test_program_rejects_depth_five():
    with pytest.raises(ValueError, match="depth"):
        full_tree(MAX_DEPTH + 1)


def test_random_program_golden_seeds():
    # frozen outputs pin generator reproducibility across builds
    assert pretty_print(random_program(random.Random(0))) == "MWR"
    assert pretty_print(random_program(random.Random(3))) == (
        "if (0.18 - 0.52·LD + 0.42·AM + 0.50·AO - 1.74·JD - 1.95·ST > 0):\n"
        "    then MOR\n"
        "    else SPT"
    )
    assert random_program(random.Random(5)) == random_program(random.Random(5))


def _zero_weights_for(point: ConceptVector, rng: random.Random) -> tuple[float, ...]:
    """Weights whose condition value at `point` is exactly 0.0: every weight
    and concept is a multiple of 1/8, so each product and partial sum is exact."""
    while True:
        slopes = [rng.randint(-16, 16) / 8 for _ in range(5)]
        bias = -sum(w * x for w, x in zip(slopes, point))
        if -2.0 <= bias <= 2.0:
            return (bias, *slopes)


def _route_values(program: Program, point: ConceptVector) -> list[float]:
    """The condition values met on the way from the root to the leaf."""
    node, values = program.root, []
    while isinstance(node, If):
        values.append(condition_value(node.weights, point))
        node = node.then_branch if values[-1] > 0.0 else node.else_branch
    return values


def test_compiled_policy_routes_like_the_tree_walk():
    # make_policy compiles the tree, compile_policy its structure with a
    # parameter vector; evaluate_counted walks the tree node by node
    rng = random.Random(18)
    zero_hits = 0
    for _ in range(400):
        structure = random_program(rng)
        point = ConceptVector(*(rng.randint(0, 8) / 8 for _ in range(5)))
        # about half the conditions sit exactly on the boundary at `point`
        params = []
        for _ in range(structure.n_params // 6):
            if rng.random() < 0.5:
                params.extend(_zero_weights_for(point, rng))
            else:
                params.extend(rng.uniform(-2.0, 2.0) for _ in range(6))
        program = set_params(structure, tuple(params))
        policy, direct = make_policy(program), compile_policy(structure, tuple(params))
        for probe in (point, random_cv(rng), random_cv(rng)):
            assert policy(probe) is direct(probe) is evaluate_counted(program, probe)[0]
        zero_hits += _route_values(program, point).count(0.0)
    assert zero_hits > 100  # the else-on-zero rule is exercised, not just present


def test_random_program_invariants_and_leaf_coverage():
    rng = random.Random(123)
    seen = set()
    for _ in range(2000):
        program = random_program(rng)
        assert program.depth <= MAX_DEPTH
        assert program.tokens <= MAX_TOKENS
        seen.update(h for h in HEURISTICS if _has_leaf(program.root, h))
    assert seen == set(HEURISTICS)


class _AlwaysBranch:
    """A random source that grows an if-node wherever one fits."""

    def random(self):
        return 0.0

    def uniform(self, low, high):
        return 0.0

    def choice(self, options):
        return options[0]


def test_random_program_fills_its_depth_limit():
    # a tree of depth d holds at most 2^(d-1) - 1 conditions, each adding 9
    # tokens, so the depth limit alone keeps a program within MAX_TOKENS
    sizes = [random_program(_AlwaysBranch(), d).tokens for d in range(1, MAX_DEPTH + 1)]
    assert sizes == [1, 10, 28, 64]
    assert max(sizes) <= MAX_TOKENS


def _has_leaf(node, heuristic) -> bool:
    if isinstance(node, Heuristic):
        return node is heuristic
    return _has_leaf(node.then_branch, heuristic) or _has_leaf(node.else_branch, heuristic)


def test_mutate_leaf_program_swaps_heuristic():
    rng = random.Random(9)
    program = Program(Heuristic.SPT)
    for _ in range(50):
        mutant = mutate(program, rng)
        assert isinstance(mutant.root, Heuristic)
        assert mutant.root is not Heuristic.SPT


def test_mutate_preserves_input():
    rng = random.Random(10)
    program = example_policy()
    snapshot = serialize(program)
    for _ in range(50):
        mutate(program, rng)
    assert serialize(program) == snapshot


def test_mutation_validity_bulk():
    rng = random.Random(11)
    program = random_program(rng)
    for _ in range(2000):
        program = mutate(program, rng)
        assert program.depth <= MAX_DEPTH
        assert program.tokens <= MAX_TOKENS


def test_root_mutation_reaches_all_depths():
    rng = random.Random(12)
    base = full_tree(MAX_DEPTH)
    depths = set()
    for _ in range(500):
        depths.add(mutate(base, rng).depth)
    assert depths == {1, 2, 3, 4}


def test_grammar_closure():
    # recognizer: every node is a rule of H or an if-node with a
    # 6-weight condition inside the box and two derivable branches
    def derivable(node) -> bool:
        if isinstance(node, Heuristic):
            return node in HEURISTICS
        if isinstance(node, If):
            weights_ok = len(node.weights) == 6 and all(
                -2.0 <= w <= 2.0 for w in node.weights
            )
            return weights_ok and derivable(node.then_branch) and derivable(node.else_branch)
        return False

    rng = random.Random(13)
    program = random_program(rng)
    for _ in range(500):
        assert derivable(program.root)
        program = mutate(program, rng)


def test_pretty_print_leaf():
    assert pretty_print(Program(Heuristic.SPT)) == "SPT"


def test_pretty_print_omits_zero_terms():
    program = Program(
        If((1.0, 0, 0, 0, 0, 0), Heuristic.MWR, Heuristic.SPT)
    )
    text = " ".join(pretty_print(program).split())
    assert text == "if (1.00 > 0): then MWR else SPT"


def test_pretty_print_nested_chain_modulo_whitespace():
    expected = """
    if ( 1.00 + 0.79·LD - 0.84·AM + 1.20·AO - 0.84·JD - 1.84·ST > 0 ):
        then MWR
        else if ( -1.11 - 0.24·LD + 1.66·AM + 1.35·AO - 1.98·JD + 1.46·ST > 0 ):
            then LOR
            else SPT
    """

    def squash(text: str) -> str:
        return "".join(text.split())

    assert squash(pretty_print(example_policy())) == squash(expected)


def test_serialize_round_trip_bulk():
    rng = random.Random(14)
    for _ in range(500):
        program = random_program(rng)
        again = deserialize(serialize(program))
        assert again == program
        for _ in range(5):
            point = random_cv(rng)
            assert make_policy(again)(point) is make_policy(program)(point)


def test_serialize_pins_the_document_text():
    program = Program(If((0.5, -1.0, 0.0, 0.25, 0.0, 2.0), Heuristic.MWR, Heuristic.SPT))
    assert serialize(program) == """{
  "kind": "if",
  "weights": [
    0.5,
    -1.0,
    0.0,
    0.25,
    0.0,
    2.0
  ],
  "then": {
    "kind": "action",
    "heuristic": "MWR"
  },
  "else": {
    "kind": "action",
    "heuristic": "SPT"
  }
}
"""
    assert deserialize(serialize(program)) == program


def test_deserialize_rejects_bad_arity():
    doc = '{"kind": "if", "weights": [1, 0, 0, 0, 0], "then": {"kind": "action", "heuristic": "SPT"}, "else": {"kind": "action", "heuristic": "MOR"}}'
    with pytest.raises(PolicyFormatError, match="6 weights"):
        deserialize(doc)


def test_deserialize_rejects_unknown_heuristic():
    with pytest.raises(PolicyFormatError, match="unknown dispatching rule"):
        deserialize('{"kind": "action", "heuristic": "LPT"}')


@pytest.mark.parametrize("doc, fragment", [
    # JSON booleans and strings are not weights, even where float() takes them
    ('{"kind": "if", "weights": [true, 0, 0, 0, 0, 0], "then": {"kind": "action", "heuristic": "SPT"}, "else": {"kind": "action", "heuristic": "MOR"}}', "JSON numbers"),
    ('{"kind": "if", "weights": ["1", 0, 0, 0, 0, 0], "then": {"kind": "action", "heuristic": "SPT"}, "else": {"kind": "action", "heuristic": "MOR"}}', "JSON numbers"),
    # unknown keys are typos or foreign documents, never silently dropped
    ('{"kind": "action", "heuristic": "SPT", "rule": "MOR"}', "unknown key"),
    ('{"kind": "if", "weights": [1, 0, 0, 0, 0, 0], "then": {"kind": "action", "heuristic": "SPT"}, "else": {"kind": "action", "heuristic": "MOR"}, "comment": "x"}', "unknown key"),
    ('{"kind": ["if"]}', "unknown node kind"),
    ('{"kind": "if", "weights": 3, "then": {"kind": "action", "heuristic": "SPT"}, "else": {"kind": "action", "heuristic": "MOR"}}', "list of JSON numbers"),
    ('{"kind": "if", "then": {"kind": "action", "heuristic": "SPT"}, "else": {"kind": "action", "heuristic": "MOR"}}', "list of JSON numbers"),
], ids=["bool-weight", "string-weight", "action-extra-key", "if-extra-key", "list-kind",
        "scalar-weights", "missing-weights"])
def test_deserialize_is_strict(doc, fragment):
    with pytest.raises(PolicyFormatError, match=fragment):
        deserialize(doc)


@pytest.mark.parametrize("doc, message", [
    ("[1]", "expected an object node, got list"),
    ('{"kind": "if", "weights": [1, 0, 0, 0, 0, 0], "then": {"kind": "action", "heuristic": "SPT"}}',
     "if-node needs 'then' and 'else' branches"),
], ids=["list-document", "no-else"])
def test_deserialize_names_a_missing_node(doc, message):
    with pytest.raises(PolicyFormatError, match=f"^{message}$"):
        deserialize(doc)


def test_deserialize_rejects_depth_violation():
    obj = '{"kind": "action", "heuristic": "SPT"}'
    for _ in range(5):
        obj = f'{{"kind": "if", "weights": [1, 0, 0, 0, 0, 0], "then": {obj}, "else": {obj}}}'
    with pytest.raises(PolicyFormatError, match="depth"):
        deserialize(obj)



def test_get_set_params():
    leaf = Program(Heuristic.SPT)
    assert get_params(leaf) == ()
    program = example_policy()
    params = get_params(program)
    assert len(params) == 12
    assert set_params(program, params) == program
    moved = set_params(program, tuple(0.0 for _ in params))
    assert moved != program
    assert moved.n_params == program.n_params
    with pytest.raises(ValueError, match="expected 12"):
        set_params(program, params[:-1])
    with pytest.raises(ValueError, match="expected 12"):
        compile_policy(program, params + (0.0,))


def test_set_params_preserves_behavior_round_trip():
    rng = random.Random(15)
    for _ in range(200):
        program = random_program(rng)
        rebuilt = set_params(program, get_params(program))
        assert rebuilt == program
        point = random_cv(rng)
        assert make_policy(rebuilt)(point) is make_policy(program)(point)


def _leaves_with_constraints(node, constraints):
    if isinstance(node, Heuristic):
        return [(node, list(constraints))]
    out = _leaves_with_constraints(node.then_branch, constraints + [(node.weights, True)])
    out += _leaves_with_constraints(node.else_branch, constraints + [(node.weights, False)])
    return out


def test_partition_property():
    # the vectors routed to a leaf are exactly those satisfying its
    # half-space constraints; re-derive the leaf independently and compare
    rng = random.Random(16)
    for _ in range(200):
        program = random_program(rng)
        leaves = _leaves_with_constraints(program.root, [])
        assert len(leaves[0][1]) <= MAX_DEPTH - 1
        for _ in range(5):
            point = random_cv(rng)
            matching = [
                leaf
                for leaf, constraints in leaves
                if all((condition_value(weights, point) > 0) is positive for weights, positive in constraints)
            ]
            assert len(matching) == 1
            assert matching[0] is make_policy(program)(point)


def test_condition_evaluation_bound():
    rng = random.Random(17)
    for _ in range(500):
        program = random_program(rng)
        _, conditions = evaluate_counted(program, random_cv(rng))
        assert conditions <= MAX_DEPTH - 1


def test_condition_weight_box_enforced():
    leaf = Heuristic.SPT
    with pytest.raises(ValueError, match="outside"):
        If((2.5, 0, 0, 0, 0, 0), leaf, leaf)
    with pytest.raises(ValueError, match="6 weights"):
        If((1.0, 0.0), leaf, leaf)
