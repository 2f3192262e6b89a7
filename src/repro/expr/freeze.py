"""Regenerate the expression grammar's frozen LALR tables.

Run ``PYTHONPATH=src python -m repro.expr.freeze`` after changing
:mod:`repro.expr.grammar`; it rewrites ``parsetab.py`` beside this file.
Until then the parser notices the stale fingerprint and builds its table
in memory, as it did before tables were frozen.
"""

from __future__ import annotations

from pathlib import Path

from ..lexyacc import build_lalr_table
from ..lexyacc.frozen import render_table
from .grammar import expression_grammar

__all__ = ["HEADER", "PARSETAB", "table_source"]

PARSETAB = Path(__file__).with_name("parsetab.py")
HEADER = ("LALR(1) tables of the expression grammar, generated by "
          "``python -m repro.expr.freeze``.\n\nDo not edit: regenerate.\n")


def table_source() -> str:
    """The ``parsetab.py`` text for the current grammar."""
    return render_table(build_lalr_table(expression_grammar()), HEADER)


if __name__ == "__main__":
    PARSETAB.write_text(table_source())
    print(f"wrote {PARSETAB}")
