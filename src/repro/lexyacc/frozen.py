"""Frozen LALR(1) tables: what PLY's ``parsetab`` module is to ``yacc``.

Table construction is the expensive half of a parser; the tables are a
pure function of the grammar.  :func:`render_table` writes a table as the
source of a plain Python module keyed by :meth:`Grammar.fingerprint`;
:func:`load_table` turns such a module back into a :class:`ParseTable`
when the fingerprint still matches the grammar, and returns ``None`` (build
in memory instead) when it does not.  Nothing is written at run time: the
module is generated ahead of time and committed.

A frozen table carries no LR(0) item sets (``state_items`` is empty), so
:meth:`ParseTable.describe_state` is for tables built in memory.
"""

from __future__ import annotations

from types import ModuleType
from typing import Optional

from .grammar import Grammar
from .lr import Conflict, ParseTable

__all__ = ["load_table", "render_table"]


def _conflict_rows(conflicts: list[Conflict]) -> list[tuple]:
    # Set iteration order during construction varies with string
    # hashing, so records are kept sorted.
    return sorted((c.state, c.token, c.kind, c.resolution)
                  for c in conflicts)


def render_table(table: ParseTable, header: str) -> str:
    """The source of a module holding ``table``; ``header`` becomes its
    docstring (say how to regenerate it)."""
    lines = [f'"""{header}"""', "",
             f"FINGERPRINT = {table.grammar.fingerprint()!r}", "",
             "ACTION = ["]
    for row in table.action:
        lines.append(f"    {dict(sorted(row.items()))!r},")
    lines += ["]", "", "GOTO = ["]
    for row in table.goto:
        lines.append(f"    {dict(sorted(row.items()))!r},")
    lines += ["]", ""]
    for name, rows in (("CONFLICTS", table.conflicts),
                       ("RESOLUTIONS", table.resolutions)):
        lines.append(f"{name} = [")
        lines.extend(f"    {row!r}," for row in _conflict_rows(rows))
        lines += ["]", ""]
    return "\n".join(lines)


def load_table(grammar: Grammar,
               module: ModuleType) -> Optional[ParseTable]:
    """The table frozen in ``module`` if it was generated from this very
    grammar, else ``None``."""
    if getattr(module, "FINGERPRINT", None) != grammar.fingerprint():
        return None
    return ParseTable(
        grammar, module.ACTION, module.GOTO,
        [Conflict(*row) for row in module.CONFLICTS],
        [Conflict(*row) for row in module.RESOLUTIONS])
