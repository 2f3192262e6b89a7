"""The committed frozen LALR table (``repro/expr/parsetab.py``) is what a
fresh build of the expression grammar gives.  When this fails after a
grammar change, regenerate it: ``PYTHONPATH=src python -m
repro.expr.freeze``."""

import dataclasses

from repro.errors import ParseError
from repro.expr import parse, parsetab
from repro.expr.freeze import PARSETAB, table_source
from repro.expr.grammar import expression_grammar
from repro.expr.parser import _machinery
from repro.lexyacc import Grammar, LRParser, Production, build_lalr_table
from repro.lexyacc.frozen import load_table


def _rows(conflicts):
    return sorted(dataclasses.astuple(c) for c in conflicts)


def test_committed_table_is_a_fresh_build():
    assert PARSETAB.read_text() == table_source()
    grammar = expression_grammar()
    fresh = build_lalr_table(grammar)
    frozen = load_table(grammar, parsetab)
    assert frozen is not None
    assert frozen.action == fresh.action
    assert frozen.goto == fresh.goto
    assert _rows(frozen.conflicts) == _rows(fresh.conflicts)
    assert _rows(frozen.resolutions) == _rows(fresh.resolutions)


def test_parser_runs_on_the_frozen_table():
    _, parser = _machinery()
    # Frozen tables carry no LR(0) item sets; built ones do.
    assert parser.table.state_items == []
    assert parse("r = a + b * c").result_name == "r"


def test_stale_fingerprint_builds_in_memory():
    grammar = expression_grammar()
    other = Grammar([*grammar.productions[1:],
                     Production("stmt", ("IDENT",))], "program")
    assert other.fingerprint() != grammar.fingerprint()
    assert load_table(other, parsetab) is None
    parser = LRParser(other, load_table(other, parsetab))
    assert parser.table.state_items        # built, not loaded


def test_error_messages_unchanged():
    try:
        parse("a = (u + ")
    except ParseError as exc:
        assert "unexpected end of input; expected one of:" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("expected a ParseError")
