"""Game semantics engine for a small actor calculus.

Terms denote strategies over string-diagram positions; the package
builds both the process-side and strategy-side transition systems,
decides weak bisimilarity, and runs fair-testing experiments.
"""

from .term import (
    IllTyped,
    NIL,
    Par,
    ParseError,
    Process,
    Recv,
    Send,
    Sum,
    Tick,
    canonical,
    enumerate_terms,
    parse,
    pretty,
    typecheck,
    unparse,
)
from .strategy import Definite, definite, dump, interpret, readback
from .lts import (
    closed_graph,
    process_lts,
    root_process,
    root_strategy,
    strategy_lts,
    weak_bisim,
)
from .fairtest import Test, eq_check, gen_tests, in_bot, passes

__version__ = "0.1.0"

__all__ = [
    "IllTyped",
    "NIL",
    "Par",
    "ParseError",
    "Process",
    "Recv",
    "Send",
    "Sum",
    "Tick",
    "canonical",
    "enumerate_terms",
    "parse",
    "pretty",
    "typecheck",
    "unparse",
    "Definite",
    "definite",
    "dump",
    "interpret",
    "readback",
    "closed_graph",
    "process_lts",
    "root_process",
    "root_strategy",
    "strategy_lts",
    "weak_bisim",
    "Test",
    "eq_check",
    "gen_tests",
    "in_bot",
    "passes",
    "__version__",
]
