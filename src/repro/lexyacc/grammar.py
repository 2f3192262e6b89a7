"""Context-free grammar objects for the LALR(1) parser generator.

A :class:`Grammar` is a list of :class:`Production` rules plus a start
symbol.  Terminals are whatever symbols never appear on a left-hand side.
The class computes the NULLABLE set and FIRST sets needed for LALR(1) table
construction, and supports precedence/associativity declarations used to
resolve shift/reduce conflicts the same way yacc and PLY do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from ..errors import GrammarError

__all__ = ["Production", "Precedence", "Grammar", "EOF", "EPSILON"]

EOF = "$end"
EPSILON = "<empty>"


@dataclass(frozen=True)
class Production:
    """``lhs -> rhs`` with an optional semantic ``action``.

    The action receives one positional argument per RHS symbol (the token
    value for terminals, the action result for nonterminals) and returns
    the semantic value of the LHS.  ``prec`` optionally overrides the
    production's precedence terminal (yacc's ``%prec``).
    """

    lhs: str
    rhs: tuple[str, ...]
    action: Optional[Callable[..., object]] = None
    prec: Optional[str] = None

    def __str__(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else EPSILON
        return f"{self.lhs} -> {rhs}"


@dataclass(frozen=True)
class Precedence:
    """One precedence level: ('left'|'right'|'nonassoc', terminals...)."""

    assoc: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.assoc not in ("left", "right", "nonassoc"):
            raise GrammarError(f"bad associativity {self.assoc!r}")


class Grammar:
    """An augmented context-free grammar.

    ``productions[0]`` is always the synthetic start production
    ``S' -> start`` added here, matching the textbook LALR construction.
    """

    def __init__(self, productions: Sequence[Production], start: str,
                 precedence: Sequence[Precedence] = ()):
        if not productions:
            raise GrammarError("grammar has no productions")
        self.start = start
        aug = Production("S'", (start,))
        self.productions: list[Production] = [aug, *productions]
        self.nonterminals: set[str] = {p.lhs for p in self.productions}
        rhs_symbols = {s for p in self.productions for s in p.rhs}
        self.terminals: set[str] = (rhs_symbols - self.nonterminals) | {EOF}
        if start not in self.nonterminals:
            raise GrammarError(f"start symbol {start!r} has no productions")
        undefined = {
            s for p in self.productions for s in p.rhs
            if s not in self.nonterminals and s not in self.terminals}
        if undefined:
            raise GrammarError(f"undefined symbols: {sorted(undefined)}")
        self._prods_for: dict[str, list[int]] = {}
        for i, p in enumerate(self.productions):
            self._prods_for.setdefault(p.lhs, []).append(i)
        self._prec_of: dict[str, tuple[str, int]] = {}
        for level, decl in enumerate(precedence, start=1):
            for tok in decl.tokens:
                if tok in self._prec_of:
                    raise GrammarError(
                        f"token {tok} appears in two precedence levels")
                self._prec_of[tok] = (decl.assoc, level)
        self.nullable: frozenset[str] = self._compute_nullable()
        self.first: dict[str, frozenset[str]] = self._compute_first()

    # -- structure ---------------------------------------------------------

    def productions_for(self, nonterminal: str) -> list[int]:
        """Indices of productions with the given LHS."""
        return self._prods_for.get(nonterminal, [])

    def is_terminal(self, symbol: str) -> bool:
        return symbol in self.terminals

    def precedence_of(self, terminal: str) -> Optional[tuple[str, int]]:
        """(assoc, level) of a terminal, or None if undeclared."""
        return self._prec_of.get(terminal)

    def production_precedence(self, prod: Production) -> Optional[tuple[str, int]]:
        """Precedence of a production: its %prec token, else its rightmost
        terminal — the yacc rule."""
        if prod.prec is not None:
            return self._prec_of.get(prod.prec)
        for symbol in reversed(prod.rhs):
            if self.is_terminal(symbol):
                return self._prec_of.get(symbol)
        return None

    def fingerprint(self) -> str:
        """A digest of everything the LALR table depends on — the
        productions (symbols and ``%prec``, not actions), the precedence
        declarations and the start symbol — keying frozen tables."""
        shape = (self.start,
                 [(p.lhs, p.rhs, p.prec) for p in self.productions],
                 sorted(self._prec_of.items()))
        return hashlib.sha256(repr(shape).encode()).hexdigest()

    # -- NULLABLE / FIRST ----------------------------------------------------

    def _compute_nullable(self) -> frozenset[str]:
        nullable: set[str] = set()
        changed = True
        while changed:
            changed = False
            for p in self.productions:
                if p.lhs in nullable:
                    continue
                if all(s in nullable for s in p.rhs):
                    nullable.add(p.lhs)
                    changed = True
        return frozenset(nullable)

    def _compute_first(self) -> dict[str, frozenset[str]]:
        first: dict[str, set[str]] = {t: {t} for t in self.terminals}
        for nt in self.nonterminals:
            first[nt] = set()
        changed = True
        while changed:
            changed = False
            for p in self.productions:
                target = first[p.lhs]
                before = len(target)
                for symbol in p.rhs:
                    target |= first[symbol]
                    if symbol not in self.nullable:
                        break
                if len(target) != before:
                    changed = True
        return {k: frozenset(v) for k, v in first.items()}

    def first_of_sequence(self, symbols: Iterable[str],
                          lookahead: Optional[str] = None) -> frozenset[str]:
        """FIRST of a symbol string, optionally followed by a lookahead
        terminal (used when closing LR(1) items)."""
        out: set[str] = set()
        for symbol in symbols:
            out |= self.first[symbol]
            if symbol not in self.nullable:
                return frozenset(out)
        if lookahead is not None:
            out.add(lookahead)
        return frozenset(out)

    def sequence_nullable(self, symbols: Iterable[str]) -> bool:
        return all(s in self.nullable for s in symbols)

    def __str__(self) -> str:
        return "\n".join(f"{i}: {p}" for i, p in enumerate(self.productions))
