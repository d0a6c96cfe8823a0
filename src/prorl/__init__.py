"""Learning human-readable dispatching programs for job-shop scheduling."""

from .instance import Instance, Operation, ParseError, load_bks, parse_standard, parse_taillard
from .pdr import Heuristic
from .dsl import Program, deserialize, make_policy, pretty_print, serialize
from .search import SearchConfig, train

__all__ = [
    "Heuristic",
    "Instance",
    "Operation",
    "ParseError",
    "Program",
    "SearchConfig",
    "deserialize",
    "load_bks",
    "make_policy",
    "parse_standard",
    "parse_taillard",
    "pretty_print",
    "serialize",
    "train",
]
