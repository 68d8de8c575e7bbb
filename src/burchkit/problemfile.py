"""Line-oriented input format for rings, ideals, and module presentations.

Grammar, one statement per line, '#' starts a comment:

    field GF(<prime>)
    ring <name> = poly(<var>[, <var>...]) [mod [<monomial>, ...]]
    ring <name> = semigroup(<int>[, <int>...])
    ideal <name> in <ring> = [<monomial or valuation>, ...]
    module <name> in <ring> = coker rows=<r> cols=<c>
        entries=[(i,j,<monomial>), ...] shifts=[...]

Monomials look like x^2*y; the literal 1 is the unit monomial.  Over a
semigroup ring, ideal generators and matrix entries are valuations.
Matrix indices are 1-based; shifts list the degrees of the <r> target
generators and column degrees are inferred from the entries.  Every
error carries the 1-based line number of the offending statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .homalg import (
    DEFAULT_PRIME,
    GradedAlgebra,
    GradedFreeModule,
    GradedPresentation,
    HomogeneousMap,
)
from .linalg import check_prime
from .rings import QuotientRing, SemigroupRing


class ProblemFileError(ValueError):
    """Parse or resolution failure, tagged with the source line."""

    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


_NAME = r"[A-Za-z_]\w*"
_FIELD_RE = re.compile(r"^field\s+GF\(\s*(\d+)\s*\)$")
_RING_POLY_RE = re.compile(
    r"^ring\s+(%s)\s*=\s*poly\(([^()]*)\)(?:\s+mod\s+\[(.*)\])?$" % _NAME
)
_RING_SG_RE = re.compile(r"^ring\s+(%s)\s*=\s*semigroup\(([^()]*)\)$" % _NAME)
_IDEAL_RE = re.compile(r"^ideal\s+(%s)\s+in\s+(%s)\s*=\s*\[(.*)\]$" % (_NAME, _NAME))
_MODULE_RE = re.compile(
    r"^module\s+(%s)\s+in\s+(%s)\s*=\s*coker\s+rows=(\d+)\s+cols=(\d+)"
    r"\s+entries=\[(.*)\]\s+shifts=\[(.*)\]$" % (_NAME, _NAME)
)
_FACTOR_RE = re.compile(r"(%s)(?:\^(\d+))?$" % _NAME)
_ENTRY_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*,\s*([^()]+?)\s*\)$")


def _split_items(text):
    """Top-level comma split, ignoring commas inside parentheses."""
    items, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        cur.append(ch)
    items.append("".join(cur))
    return [s.strip() for s in items if s.strip()]


def _parse_monomial(text, varindex):
    text = text.strip()
    if text == "1":
        return (0,) * len(varindex)
    expo = [0] * len(varindex)
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if m is None:
            raise ValueError("bad monomial factor: %r" % factor.strip())
        name, power = m.group(1), m.group(2)
        if name not in varindex:
            raise ValueError("unknown variable: %s" % name)
        expo[varindex[name]] += int(power) if power is not None else 1
    return tuple(expo)


def _parse_int(text, what):
    if not re.fullmatch(r"-?\d+", text):
        raise ValueError("%s must be an integer: %r" % (what, text))
    return int(text)


@dataclass
class ParsedProblem:
    """Resolved declarations from one problem file."""

    prime: int = DEFAULT_PRIME
    rings: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)

    def get_ideal(self, name):
        if name not in self.ideals:
            raise ValueError("unknown ideal: %s" % name)
        return self.ideals[name]

    def get_module(self, name):
        if name not in self.modules:
            raise ValueError("unknown module: %s" % name)
        return self.modules[name]


def parse_problem(text):
    """Parse and resolve the whole file; raises ProblemFileError.

    The statement parsers raise plain ValueError; the line number is
    attached here, once per statement.
    """
    prob = ParsedProblem()
    labels = {}  # ring name -> (ring, ideal parser, entry parser)
    field_line = None
    saw_decl = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        head = stmt.split(None, 1)[0]
        try:
            if head == "field":
                if field_line is not None:
                    raise ValueError("duplicate field declaration")
                if saw_decl:
                    raise ValueError("field must be declared before any ring")
                m = _FIELD_RE.match(stmt)
                if m is None:
                    raise ValueError("bad field declaration")
                prob.prime = int(m.group(1))
                check_prime(prob.prime)
                field_line = lineno
                continue
            saw_decl = True
            parse = _STATEMENTS.get(head)
            if parse is None:
                raise ValueError("unrecognized statement: %r" % head)
            parse(prob, labels, stmt)
        except ValueError as exc:
            raise ProblemFileError(lineno, str(exc)) from None
    return prob


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _parse_ring(prob, labels, stmt):
    m = _RING_POLY_RE.match(stmt) or _RING_SG_RE.match(stmt)
    if m is None:
        raise ValueError("bad ring declaration")
    name = m.group(1)
    if name in prob.rings:
        raise ValueError("duplicate ring name: %s" % name)
    build = _poly_ring if m.re is _RING_POLY_RE else _semigroup_ring
    labels[name] = build(*m.groups()[1:])
    prob.rings[name] = labels[name][0]


def _poly_ring(varpart, modpart):
    """(ring, ideal parser, entry parser) over k[vars]/(mod)."""
    varnames = _split_items(varpart)
    if not varnames:
        raise ValueError("poly ring needs at least one variable")
    for v in varnames:
        if not re.fullmatch(_NAME, v):
            raise ValueError("bad variable name: %r" % v)
    if len(set(varnames)) != len(varnames):
        raise ValueError("repeated variable name")
    varindex = {v: k for k, v in enumerate(varnames)}
    defining = []
    if modpart is not None:
        for item in _split_items(modpart):
            expo = _parse_monomial(item, varindex)
            if not any(expo):
                raise ValueError("defining monomial must not be a unit")
            defining.append(expo)
    ring = QuotientRing(len(varnames), defining)

    def ideal(items):
        return ring.ideal([_parse_monomial(s, varindex) for s in items])

    def entry(text):
        expo = _parse_monomial(text, varindex)
        if not any(expo):
            raise ValueError("entry must have positive degree")
        if ring.defining.member(expo):
            raise ValueError("entry is zero in the ring")
        return expo

    return ring, ideal, entry


def _semigroup_ring(genpart):
    """(ring, ideal parser, entry parser) over k[[S]]: labels are valuations."""
    gens = [_parse_int(s, "semigroup generator") for s in _split_items(genpart)]
    if not gens:
        raise ValueError("semigroup needs at least one generator")
    if any(g < 1 for g in gens):
        raise ValueError("semigroup generators must be positive")
    ring = SemigroupRing(tuple(gens))

    def ideal(items):
        vals = [_parse_int(s, "valuation") for s in items]
        if any(v < 0 for v in vals):
            raise ValueError("valuations must be nonnegative")
        return ring.ideal(vals)

    def entry(text):
        v = _parse_int(text, "entry valuation")
        if v <= 0:
            raise ValueError("entry must have positive degree")
        if v not in ring.S:
            raise ValueError("valuation %d is not in the semigroup" % v)
        return v

    return ring, ideal, entry


def _declaration(regex, kind, declared, labels, stmt):
    """(match, parsers of its ring) for an ideal or module statement."""
    m = regex.match(stmt)
    if m is None:
        raise ValueError("bad %s declaration" % kind)
    if m.group(1) in declared:
        raise ValueError("duplicate %s name: %s" % (kind, m.group(1)))
    parsers = labels.get(m.group(2))
    if parsers is None:
        raise ValueError("unknown ring: %s" % m.group(2))
    return m, parsers


def _parse_ideal(prob, labels, stmt):
    m, (_, ideal, _) = _declaration(_IDEAL_RE, "ideal", prob.ideals, labels, stmt)
    prob.ideals[m.group(1)] = ideal(_split_items(m.group(3)))


def _parse_module(prob, labels, stmt):
    m, (ring, _, entry) = _declaration(_MODULE_RE, "module", prob.modules, labels, stmt)
    rows, cols_n = int(m.group(3)), int(m.group(4))
    if rows < 1:
        raise ValueError("rows must be at least 1")
    shifts = [_parse_int(s, "shift") for s in _split_items(m.group(6))]
    if len(shifts) != rows:
        raise ValueError("expected %d shifts, got %d" % (rows, len(shifts)))
    if any(s < 0 for s in shifts):
        raise ValueError("shifts must be nonnegative")

    algebra = GradedAlgebra(ring, prob.prime)
    entries = {}
    for item in _split_items(m.group(5)):
        em = _ENTRY_RE.match(item)
        if em is None:
            raise ValueError("bad entry: %r" % item)
        i, j = int(em.group(1)), int(em.group(2))
        if not (1 <= i <= rows and 1 <= j <= cols_n):
            raise ValueError("entry (%d, %d) out of range" % (i, j))
        if (i, j) in entries:
            raise ValueError("duplicate entry (%d, %d)" % (i, j))
        entries[(i, j)] = entry(em.group(3))

    # each column's entries, in row order, and the one degree they give it
    elts = [{} for _ in range(cols_n)]
    degs = [set() for _ in range(cols_n)]
    for (i, j), lab in sorted(entries.items()):
        elts[j - 1][(i - 1, lab)] = 1
        degs[j - 1].add(shifts[i - 1] + algebra.deg(lab))
    for j, d in enumerate(degs, start=1):
        if not d:
            raise ValueError("column %d has no entries" % j)
        if len(d) != 1:
            raise ValueError("column %d is not homogeneous" % j)
    pmap = HomogeneousMap(
        algebra,
        GradedFreeModule(tuple(d.pop() for d in degs)),
        GradedFreeModule(tuple(shifts)),
        elts,
    )
    prob.modules[m.group(1)] = GradedPresentation(pmap)


_STATEMENTS = {"ring": _parse_ring, "ideal": _parse_ideal, "module": _parse_module}
