"""A small SPARQL-like textual query language with spatio-temporal filters.

Grammar (case-insensitive keywords)::

    query   := prefix* "SELECT" var+ "WHERE" "{" (pattern | filter)* "}"
               ["ORDER" "BY" (var | ("ASC"|"DESC") "(" var ")")]
               ["LIMIT" INTEGER]
    prefix  := "PREFIX" NAME ":" IRIREF
    pattern := term term term "."
    filter  := "FILTER" "ST_WITHIN" "(" var "," num "," num "," num ","
               num ["," num "," num] ")"
             | "FILTER" "(" var OP num ")"
    term    := var | IRIREF | prefixed-name | number | string

The well-known namespaces (``dac:``, ``unipi:``, ``geo:``, ``time:``,
``rdf:``, ``xsd:``) are prebound. Numeric literals parse to xsd:double
(with a dot) or xsd:long (without); strings to xsd:string.

Example::

    SELECT ?n ?t WHERE {
      ?n rdf:type dac:SemanticNode .
      ?n time:inSeconds ?t .
      FILTER ST_WITHIN(?n, 23.0, 37.0, 25.0, 38.0, 0, 3600)
      FILTER (?t > 600)
    }
"""

from __future__ import annotations

import re

from repro.geo.bbox import BBox
from repro.query.ast import (
    CompareFilter,
    Filter,
    OrderBy,
    PatternTerm,
    STWithinFilter,
    SelectQuery,
    TriplePattern,
    Variable,
)
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, Literal

_DEFAULT_PREFIXES = {
    "dac": V.DATACRON.base,
    "unipi": V.UNIPI.base,
    "geo": V.GEO.base,
    "time": V.TIME.base,
    "rdf": V.RDF.base,
    "xsd": V.XSD.base,
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iriref><[^>]*>)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z0-9_./+-]*)
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|[<>=])
  | (?P<punct>[{}().,])
    """,
    re.VERBOSE,
)


class QueryParseError(ValueError):
    """Raised on any syntax error, with position information."""


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QueryParseError(f"unexpected character at offset {pos}: {text[pos]!r}")
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, match.group()))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self._tokens = tokens
        self._i = 0
        self._prefixes = dict(_DEFAULT_PREFIXES)

    def _peek(self) -> tuple[str, str] | None:
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise QueryParseError("unexpected end of query")
        self._i += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        kind, value = self._next()
        if kind != "keyword" or value.upper() != word:
            raise QueryParseError(f"expected {word}, got {value!r}")

    def _expect_punct(self, char: str) -> None:
        kind, value = self._next()
        if kind != "punct" or value != char:
            raise QueryParseError(f"expected {char!r}, got {value!r}")

    def parse(self) -> SelectQuery:
        while True:
            token = self._peek()
            if token and token[0] == "keyword" and token[1].upper() == "PREFIX":
                self._parse_prefix()
            else:
                break
        self._expect_keyword("SELECT")
        distinct = False
        token = self._peek()
        if token and token[0] == "keyword" and token[1].upper() == "DISTINCT":
            self._next()
            distinct = True
        select = self._parse_select_vars()
        self._expect_keyword("WHERE")
        self._expect_punct("{")
        patterns: list[TriplePattern] = []
        filters: list[Filter] = []
        while True:
            token = self._peek()
            if token is None:
                raise QueryParseError("unterminated WHERE block")
            if token == ("punct", "}"):
                self._next()
                break
            if token[0] == "keyword" and token[1].upper() == "FILTER":
                self._next()
                filters.append(self._parse_filter())
            else:
                patterns.append(self._parse_pattern())
        order_by = None
        limit = None
        while True:
            token = self._peek()
            if token is None:
                break
            if token[0] == "keyword" and token[1].upper() == "ORDER":
                self._next()
                order_by = self._parse_order_by()
            elif token[0] == "keyword" and token[1].upper() == "LIMIT":
                self._next()
                kind, value = self._next()
                if kind != "number" or "." in value:
                    raise QueryParseError(f"LIMIT needs an integer, got {value!r}")
                limit = int(value)
            else:
                raise QueryParseError(f"unexpected trailing token {token[1]!r}")
        return SelectQuery(
            select=tuple(select),
            patterns=tuple(patterns),
            filters=tuple(filters),
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_order_by(self) -> "OrderBy":
        self._expect_keyword("BY")
        token = self._peek()
        descending = False
        if token and token[0] == "keyword" and token[1].upper() in ("ASC", "DESC"):
            self._next()
            descending = token[1].upper() == "DESC"
            self._expect_punct("(")
            kind, value = self._next()
            if kind != "var":
                raise QueryParseError("ORDER BY needs a variable")
            self._expect_punct(")")
            return OrderBy(Variable(value[1:]), descending=descending)
        kind, value = self._next()
        if kind != "var":
            raise QueryParseError("ORDER BY needs a variable")
        return OrderBy(Variable(value[1:]), descending=False)

    def _parse_prefix(self) -> None:
        self._expect_keyword("PREFIX")
        kind, value = self._next()
        if kind != "pname" or not value.endswith(":"):
            # A pname like "dac:" tokenizes as pname with empty local part.
            raise QueryParseError(f"expected prefix declaration, got {value!r}")
        name = value[:-1]
        kind, iriref = self._next()
        if kind != "iriref":
            raise QueryParseError(f"expected IRI after PREFIX, got {iriref!r}")
        self._prefixes[name] = iriref[1:-1]

    def _parse_select_vars(self) -> list[Variable]:
        out = []
        while True:
            token = self._peek()
            if token and token[0] == "var":
                self._next()
                out.append(Variable(token[1][1:]))
            else:
                break
        if not out:
            raise QueryParseError("SELECT needs at least one variable")
        return out

    def _parse_pattern(self) -> TriplePattern:
        s = self._parse_term()
        p = self._parse_term()
        o = self._parse_term()
        self._expect_punct(".")
        return TriplePattern(s, p, o)

    def _parse_term(self) -> PatternTerm:
        kind, value = self._next()
        if kind == "var":
            return Variable(value[1:])
        if kind == "iriref":
            return IRI(value[1:-1])
        if kind == "pname":
            prefix, __, local = value.partition(":")
            if prefix not in self._prefixes:
                raise QueryParseError(f"unknown prefix {prefix!r}")
            return IRI(self._prefixes[prefix] + local)
        if kind == "number":
            if "." in value or "e" in value or "E" in value:
                return Literal(float(value), V.XSD_DOUBLE)
            return Literal(int(value), V.XSD_LONG)
        if kind == "string":
            return Literal(value[1:-1].replace('\\"', '"'), V.XSD_STRING)
        if kind == "keyword" and value == "a":
            return V.PROP_TYPE
        raise QueryParseError(f"unexpected token in pattern: {value!r}")

    def _parse_filter(self) -> Filter:
        token = self._peek()
        if token and token[0] == "keyword" and token[1].upper() == "ST_WITHIN":
            self._next()
            return self._parse_st_within()
        if token == ("punct", "("):
            return self._parse_compare()
        raise QueryParseError(f"unsupported FILTER: {token!r}")

    def _parse_st_within(self) -> STWithinFilter:
        self._expect_punct("(")
        kind, value = self._next()
        if kind != "var":
            raise QueryParseError("ST_WITHIN needs a variable first")
        var = Variable(value[1:])
        numbers: list[float] = []
        while True:
            kind, value = self._next()
            if kind == "punct" and value == ")":
                break
            if kind == "punct" and value == ",":
                continue
            if kind != "number":
                raise QueryParseError(f"expected number in ST_WITHIN, got {value!r}")
            numbers.append(float(value))
        if len(numbers) not in (4, 6):
            raise QueryParseError("ST_WITHIN takes 4 (bbox) or 6 (bbox+time) numbers")
        bbox = BBox(numbers[0], numbers[1], numbers[2], numbers[3])
        if len(numbers) == 6:
            return STWithinFilter(var, bbox, numbers[4], numbers[5])
        return STWithinFilter(var, bbox)

    def _parse_compare(self) -> CompareFilter:
        self._expect_punct("(")
        kind, value = self._next()
        if kind != "var":
            raise QueryParseError("comparison filter needs a variable")
        var = Variable(value[1:])
        kind, op = self._next()
        if kind != "op":
            raise QueryParseError(f"expected comparator, got {op!r}")
        kind, number = self._next()
        if kind != "number":
            raise QueryParseError(f"expected number, got {number!r}")
        self._expect_punct(")")
        return CompareFilter(var, op, float(number))


def parse_query(text: str) -> SelectQuery:
    """Parse the textual query language into a :class:`SelectQuery`."""
    return _Parser(_tokenize(text)).parse()
