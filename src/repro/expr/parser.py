"""Public parsing entry point for user expressions.

The lexer and parser are built once per process and reused, and an
in-situ host calls :func:`parse` once per expression per time step.  Table
construction is the expensive step, so the LALR(1) table is frozen ahead
of time into :mod:`repro.expr.parsetab` (regenerated by ``python -m
repro.expr.freeze``) and loaded when its grammar fingerprint matches;
otherwise it is built in memory.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import ExpressionError
from ..lexyacc import Lexer, LRParser
from ..lexyacc.frozen import load_table
from . import parsetab
from .ast import Program
from .grammar import expression_grammar
from .lexrules import expression_lexer

__all__ = ["parse", "parser_diagnostics"]


@lru_cache(maxsize=1)
def _machinery() -> tuple[Lexer, LRParser]:
    grammar = expression_grammar()
    return expression_lexer(), LRParser(grammar,
                                        load_table(grammar, parsetab))


def parse(text: str) -> Program:
    """Parse an expression program into its AST.

    >>> parse("v_mag = sqrt(u*u + v*v + w*w)").result_name
    'v_mag'
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    lexer, parser = _machinery()
    result = parser.parse(lexer.tokens(text))
    assert isinstance(result, Program)
    return result


def parser_diagnostics() -> dict:
    """Table statistics for tests and debugging."""
    _, parser = _machinery()
    table = parser.table
    return {
        "states": table.n_states,
        "conflicts": list(table.conflicts),
        "precedence_resolutions": len(table.resolutions),
    }
