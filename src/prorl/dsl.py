"""Policy programs: representation, compiler, generation, and mutation.

A program is a binary tree. A leaf is a dispatching rule, the
`pdr.Heuristic` itself; internal nodes are if/else statements guarded by a
linear condition over the five state concepts,

    w0 + w1*LD + w2*AM + w3*AO + w4*JD + w5*ST > 0,

routing evaluation to the then-branch on a strictly positive value and to
the else-branch otherwise. A program compiles into nested closures that
route a concept vector, one per node with its weights bound as locals.
There is one compile walk: `compile_policy` reads the weights from a flat
parameter vector in pre-order, so the Bayesian inner loop evaluates a
weight vector without building a program, and `make_policy` reads them
from the program's own nodes.

Programs are immutable values; generation and mutation take an explicit
random source and a depth limit (at most 4), which they respect by
construction. A generated if-node draws its six weights with
`rng.uniform` over the weight box; the module imports no numpy.

Token accounting: a leaf costs 1 token; an if-node costs 1 for the
keyword plus 7 for its condition (six weights and the comparison) plus the
tokens of its two branches. An if-node thus adds 9 tokens together with its
extra leaf, and a program of t tokens has (t - 1) / 9 conditions. The
DSL's bound of 85 tokens follows from depth: a tree of depth d holds at
most 2^(d-1) - 1 conditions, so depth 4 caps a program at 7 conditions,
64 tokens, and only depth is a setting. A `Program` records its depth,
tokens and parameter count when it is built, so no caller walks the tree
to size a parameter vector.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Union

from .concepts import CONCEPT_NAMES, ConceptVector
from .pdr import HEURISTICS, Heuristic

if TYPE_CHECKING:
    from .sim import Policy

MAX_DEPTH = 4
MAX_TOKENS = 85
WEIGHT_LOW = -2.0
WEIGHT_HIGH = 2.0
WEIGHTS_LEN = 1 + len(CONCEPT_NAMES)

# an if-node's own tokens: the keyword, its weights and the comparison
_IF_TOKENS = 1 + WEIGHTS_LEN + 1


class PolicyFormatError(ValueError):
    """Raised when a serialized program document is malformed."""


@dataclass(frozen=True)
class If:
    """An if/else node; its condition weights are (bias, LD, AM, AO, JD, ST)
    within the box."""

    weights: tuple[float, ...]
    then_branch: "Node"
    else_branch: "Node"

    def __post_init__(self):
        if len(self.weights) != WEIGHTS_LEN:
            raise ValueError(f"condition needs {WEIGHTS_LEN} weights, got {len(self.weights)}")
        for w in self.weights:
            if not math.isfinite(w):
                raise ValueError("condition weight is not finite")
            if not WEIGHT_LOW <= w <= WEIGHT_HIGH:
                raise ValueError(f"weight {w} outside [{WEIGHT_LOW}, {WEIGHT_HIGH}]")


Node = Union[Heuristic, If]


def depth(node: Node) -> int:
    if isinstance(node, Heuristic):
        return 1
    return 1 + max(depth(node.then_branch), depth(node.else_branch))


def node_tokens(node: Node) -> int:
    if isinstance(node, Heuristic):
        return 1
    return _IF_TOKENS + node_tokens(node.then_branch) + node_tokens(node.else_branch)


@dataclass(frozen=True)
class Program:
    """A program tree and its size, recorded once when it is built: its
    depth, its tokens and the length of its flat parameter vector."""

    root: Node
    depth: int = field(init=False, repr=False, compare=False)
    tokens: int = field(init=False, repr=False, compare=False)
    n_params: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = depth(self.root)
        if d > MAX_DEPTH:
            raise ValueError(f"program depth {d} exceeds {MAX_DEPTH}")
        t = node_tokens(self.root)
        if t > MAX_TOKENS:
            raise ValueError(f"program has {t} tokens, limit {MAX_TOKENS}")
        object.__setattr__(self, "depth", d)
        object.__setattr__(self, "tokens", t)
        object.__setattr__(self, "n_params", WEIGHTS_LEN * ((t - 1) // (_IF_TOKENS + 1)))


def _compile(node: Node, weights_of: Callable[[If], Sequence[float]]) -> Policy:
    # `weights_of` gives an if-node's condition weights; it is called in
    # pre-order, each node before its branches compile
    if isinstance(node, Heuristic):
        return lambda cv: node
    w0, w1, w2, w3, w4, w5 = weights_of(node)
    then_branch = _compile(node.then_branch, weights_of)
    else_branch = _compile(node.else_branch, weights_of)

    def route(cv: ConceptVector) -> Heuristic:
        # the terms in the order of the module docstring; float sums depend on it
        if w0 + w1 * cv.ld + w2 * cv.am + w3 * cv.ao + w4 * cv.jd + w5 * cv.st > 0.0:
            return then_branch(cv)
        return else_branch(cv)

    return route


def _weight_rows(program: Program, params: Sequence[float]) -> Iterator[Sequence[float]]:
    """The flat parameter vector cut into one row per if-node, in pre-order."""
    if len(params) != program.n_params:
        raise ValueError(f"expected {program.n_params} parameters, got {len(params)}")
    return iter([params[i:i + WEIGHTS_LEN] for i in range(0, len(params), WEIGHTS_LEN)])


def compile_policy(program: Program, params: Sequence[float]) -> Policy:
    """Compile the program's structure into a simulator policy that routes
    the concepts to a rule, with `params` (pre-order flattened, the order
    `set_params` reads) as its condition weights: one closure per node, its
    weights bound as locals. The program's own weights are not read, and no
    program is built."""
    rows = _weight_rows(program, params)
    return _compile(program.root, lambda node: next(rows))


def make_policy(program: Program) -> Policy:
    """Compile the program with its own condition weights."""
    return _compile(program.root, operator.attrgetter("weights"))


def _random_node(rng: random.Random, depth_budget: int) -> Node:
    """Grammar-driven expansion; if/leaf each with probability 0.5 when the
    depth budget leaves room for an if-node."""
    if depth_budget >= 2 and rng.random() < 0.5:
        # the weights are drawn first, then the then- and the else-branch
        weights = tuple(rng.uniform(WEIGHT_LOW, WEIGHT_HIGH) for _ in range(WEIGHTS_LEN))
        return If(weights, _random_node(rng, depth_budget - 1), _random_node(rng, depth_budget - 1))
    return rng.choice(HEURISTICS)


def random_program(rng: random.Random, max_depth: int = MAX_DEPTH) -> Program:
    """Sample a complete program from the grammar with fresh uniform weights."""
    return Program(_random_node(rng, max_depth))


def _nodes(node: Node, path: tuple[str, ...] = ()) -> list[tuple[tuple[str, ...], Node]]:
    """Pre-order list of (path, node) pairs; 't'/'e' select then/else branches."""
    out = [(path, node)]
    if isinstance(node, If):
        out.extend(_nodes(node.then_branch, path + ("t",)))
        out.extend(_nodes(node.else_branch, path + ("e",)))
    return out


def _replace(node: Node, path: tuple[str, ...], new: Node) -> Node:
    if not path:
        return new
    head, rest = path[0], path[1:]
    if head == "t":
        return If(node.weights, _replace(node.then_branch, rest, new), node.else_branch)
    return If(node.weights, node.then_branch, _replace(node.else_branch, rest, new))


def mutate(program: Program, rng: random.Random, max_depth: int = MAX_DEPTH) -> Program:
    """Mutate one uniformly chosen node; the input program is left unchanged.

    An if-node has its branches deleted and is re-expanded from the grammar
    (fresh weights, within the depth budget remaining at its position); a
    leaf swaps its rule for a different one.
    """
    nodes = _nodes(program.root)
    path, target = nodes[rng.randrange(len(nodes))]
    if isinstance(target, Heuristic):
        options = [h for h in HEURISTICS if h is not target]
        new_node: Node = options[rng.randrange(len(options))]
    else:
        new_node = _random_node(rng, max_depth - len(path))
    return Program(_replace(program.root, path, new_node))


def set_params(program: Program, params: Sequence[float]) -> Program:
    """Rebuild the program with the given pre-order flattened weights."""
    rows = _weight_rows(program, params)

    def walk(node: Node) -> Node:
        if isinstance(node, Heuristic):
            return node
        return If(tuple(next(rows)), walk(node.then_branch), walk(node.else_branch))

    return Program(walk(program.root))


def _format_condition(weights: tuple[float, ...]) -> str:
    parts = [f"{weights[0]:.2f}"]
    for name, w in zip(CONCEPT_NAMES, weights[1:]):
        if w == 0.0:
            continue
        sign = "+" if w > 0 else "-"
        parts.append(f"{sign} {abs(w):.2f}·{name}")
    return " ".join(parts)


def _pretty(node: Node, indent: int) -> str:
    if isinstance(node, Heuristic):
        return node.value
    pad = "    " * (indent + 1)
    return (
        f"if ({_format_condition(node.weights)} > 0):\n"
        f"{pad}then {_pretty(node.then_branch, indent + 1)}\n"
        f"{pad}else {_pretty(node.else_branch, indent + 1)}"
    )


def pretty_print(program: Program) -> str:
    """Human-readable nested if/then/else with coefficients to two decimals."""
    return _pretty(program.root, 0)


def _node_to_obj(node: Node):
    if isinstance(node, Heuristic):
        return {"kind": "action", "heuristic": node.value}
    return {
        "kind": "if",
        "weights": list(node.weights),
        "then": _node_to_obj(node.then_branch),
        "else": _node_to_obj(node.else_branch),
    }


def serialize(program: Program) -> str:
    """Lossless JSON rendering of the program tree."""
    return json.dumps(_node_to_obj(program.root), indent=2) + "\n"


_NODE_KEYS = {"action": {"kind", "heuristic"}, "if": {"kind", "weights", "then", "else"}}


def _node_from_obj(obj, level: int = 1) -> Node:
    # bounds the recursion on hostile input; Program re-checks the result
    if level > MAX_DEPTH:
        raise PolicyFormatError(f"program depth exceeds {MAX_DEPTH}")
    if not isinstance(obj, dict):
        raise PolicyFormatError(f"expected an object node, got {type(obj).__name__}")
    kind = obj.get("kind")
    allowed = _NODE_KEYS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise PolicyFormatError(f"unknown node kind {kind!r}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise PolicyFormatError(f"unknown key(s) {', '.join(map(repr, unknown))} in {kind} node")
    if kind == "action":
        name = obj.get("heuristic")
        try:
            return Heuristic.parse(str(name))
        except ValueError as exc:
            raise PolicyFormatError(str(exc)) from None
    weights = obj.get("weights")
    # If checks the count; JSON booleans and strings pass float()
    if not isinstance(weights, list) or any(
        isinstance(w, bool) or not isinstance(w, (int, float)) for w in weights
    ):
        raise PolicyFormatError(f"condition weights must be a list of JSON numbers, got {weights!r}")
    if "then" not in obj or "else" not in obj:
        raise PolicyFormatError("if-node needs 'then' and 'else' branches")
    then_branch, else_branch = (_node_from_obj(obj[key], level + 1) for key in ("then", "else"))
    try:
        return If(tuple(float(w) for w in weights), then_branch, else_branch)
    except OverflowError:  # a JSON integer past the float range
        raise PolicyFormatError(f"condition weight outside [{WEIGHT_LOW}, {WEIGHT_HIGH}]") from None
    except ValueError as exc:
        raise PolicyFormatError(str(exc)) from None


def deserialize(text: str) -> Program:
    """Parse a serialized program; structural violations are rejected."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:  # nesting too deep for the JSON parser itself
        raise PolicyFormatError(f"program depth exceeds {MAX_DEPTH}") from None
    root = _node_from_obj(obj)
    try:
        return Program(root)
    except ValueError as exc:
        raise PolicyFormatError(str(exc)) from None
