"""Exact symbolic layer: series atoms, product terms, rational combinations.

The reduction machinery rewrites lattice sums as rational linear
combinations of four atom kinds:

* ``Z(s)``              single zeta value, s >= 2
* ``E(s1,s2[,s3])``     Euler sum over n1 > n2 (> n3) >= 1, s1 >= 2
* ``MT(a,b,c)``         double sum m1^-a m2^-b (m1+m2)^-c
* ``W(s1,...,s6)``      triple sum with denominators m1, m2, m3, m1+m2,
                        m2+m3, m1+m2+m3

A coefficient is stored as an ``int`` whenever it is integral and as a
``fractions.Fraction`` only when its denominator is not 1, so the integer
combinations the reductions produce never touch ``Fraction`` arithmetic.
No floats enter this module: a combination refuses any coefficient that
is not an ``int`` or a ``Fraction`` with ``UnsupportedParams``.  The
serialized form of a combination is grammar-stable, e.g.::

    3/2 * Z(3)*MT(2,2,2) + -1 * E(4,2)

and ``parse`` round-trips ``render`` exactly.  ``W`` atoms keep the slot
order they were built with: the m1 <-> m3 relabeling gives every tuple a
twin, and evaluating both orientations independently is itself one of the
verified identities, so nothing here may silently fold them together.
``canonical_atom`` exposes the folding for callers that want it.

An atom stores its indices as plain ``int`` (a bool becomes its int) and
computes its sort key when it is built, as a ``Term`` does.  Each distinct
term is built once per process: ``intern_term`` shares one ``Term`` per
factor tuple, and a term keeps its hash, sort key and text.  A term's sort
key is one flat tuple, (weight, number of factors, rank1, indices1...,
rank2, ...), which orders as the nested (weight, number, atom keys) would
but compares without recursing.  The parsed atom, term and coefficient
literals, and each ``coef * term`` piece of ``parse``, are memoized too.
All of these depend only on their integers or literals, so
``series.clear_caches`` keeps them.
``LinearCombination.substitute`` is the one atom rewrite: the reductions
and ``canonicalize`` go through it.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import InadmissibleIndex, UnsupportedParams

RationalLike = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 outside the Pascal triangle.

    The expansion formulas below rely on out-of-range binomials vanishing
    instead of raising, so this wrapper is used everywhere instead of
    ``math.comb``.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# atoms


def _ints(values: Iterable) -> Optional[tuple[int, ...]]:
    """``values`` as plain ints, a bool as its int; None if one is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return None


@dataclass(frozen=True)
class SingleZeta:
    """zeta(s) = sum_{n>=1} n^-s, admissible for s >= 2."""

    s: int

    def __post_init__(self):
        s = _ints((self.s,))
        if s is None or s[0] < 2:
            raise InadmissibleIndex(f"Z({self.s}) diverges or is malformed")
        object.__setattr__(self, "s", s[0])
        object.__setattr__(self, "_key", (0, s))

    @property
    def weight(self) -> int:
        return self.s

    def render(self) -> str:
        return f"Z({self.s})"


@dataclass(frozen=True)
class EulerSum:
    """Nested sum over n1 > ... > nr >= 1 of prod nj^-sj, depth 2 or 3.

    Admissible when every index is >= 1 and the leading index is >= 2.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.indices)
        idx = _ints(raw)
        if len(raw) not in (2, 3):
            raise InadmissibleIndex(f"E{raw} must have depth 2 or 3")
        if idx is None or min(idx) < 1:
            raise InadmissibleIndex(f"E{raw} has an index below 1")
        if idx[0] < 2:
            raise InadmissibleIndex(f"E{idx} diverges (leading index 1)")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_key", (1, (len(idx),) + idx))

    @property
    def weight(self) -> int:
        return sum(self.indices)

    def render(self) -> str:
        return f"E({','.join(map(str, self.indices))})"


@dataclass(frozen=True)
class MordellTornheim3:
    """MT(a,b,c) = sum_{m1,m2>=1} m1^-a m2^-b (m1+m2)^-c.

    Symmetric in (a, b); instances are stored with a <= b.  Convergence
    needs a+c >= 2, b+c >= 2 and a+b+c >= 3, which is enforced here so a
    constructed atom always denotes a finite value.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        abc = _ints((self.a, self.b, self.c))
        if abc is None or min(abc) < 0:
            raise InadmissibleIndex(f"MT({self.a},{self.b},{self.c}) is malformed")
        a, b, c = abc
        if a + c < 2 or b + c < 2 or a + b + c < 3:
            raise InadmissibleIndex(f"MT({a},{b},{c}) diverges")
        if a > b:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_key", (2, (a, b, c)))

    @property
    def weight(self) -> int:
        return self.a + self.b + self.c

    def render(self) -> str:
        return f"MT({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class WittenSl4:
    """The six-denominator triple sum; slots are kept in the given order."""

    s: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        s = _ints(self.s)
        if s is None or len(s) != 6 or min(s) < 0:
            raise InadmissibleIndex(f"W{tuple(self.s)} is malformed")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_key", (3, s))

    @property
    def weight(self) -> int:
        return sum(self.s)

    def mirror(self) -> "WittenSl4":
        """The m1 <-> m3 relabeling twin (equal as a number)."""
        s = self.s
        return WittenSl4((s[2], s[1], s[0], s[4], s[3], s[5]))

    def render(self) -> str:
        return f"W({','.join(map(str, self.s))})"


Atom = Union[SingleZeta, EulerSum, MordellTornheim3, WittenSl4]


def atom_key(atom: Atom) -> tuple:
    """Deterministic sort key used for term ordering and rendering: the
    kind's rank (Z, E, MT, W) and the indices, computed when the atom is built."""
    return atom._key


def canonical_atom(atom: Atom) -> Atom:
    """Fold relabeling twins: W tuples map to the lex-min orientation."""
    if isinstance(atom, WittenSl4):
        twin = atom.mirror()
        return atom if atom.s <= twin.s else twin
    return atom


# ---------------------------------------------------------------------------
# terms and linear combinations


@dataclass(frozen=True)
class Term:
    """A product of atoms; the empty product is the constant 1.

    Build terms through ``intern_term`` to share one instance per factor
    tuple; ``Term(factors)`` makes an equal, unshared one.
    """

    factors: tuple[Atom, ...] = ()

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) > 1:
            factors = tuple(sorted(factors, key=atom_key))
        object.__setattr__(self, "factors", factors)
        # terms are the dict keys of every accumulation and the sort keys of
        # every render: hash and key them once, render them at most once.
        # The key is flat, (weight, len, rank1, *indices1, rank2, ...): atoms
        # of one rank have index tuples of one length, or of E's depth, which
        # leads its tuple, so it orders as the nested key does
        key = (sum(f.weight for f in factors), len(factors))
        for f in factors:
            rank, indices = atom_key(f)
            key += (rank,) + indices
        object.__setattr__(self, "_hash", hash(factors))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_text", None)

    def __hash__(self) -> int:
        return self._hash

    @property
    def weight(self) -> int:
        return self._key[0]

    def render(self) -> str:
        text = self._text
        if text is None:
            text = "*".join(f.render() for f in self.factors) if self.factors else "1"
            object.__setattr__(self, "_text", text)
        return text

    def sort_key(self) -> tuple:
        return self._key


@functools.cache
def intern_term(factors: tuple[Atom, ...]) -> Term:
    """The one shared ``Term`` of ``factors``, given in any order.

    Memoized per factor tuple; every permutation of one tuple returns the
    same instance, so a term's hash, sort key and text are computed once
    per process.
    """
    term = Term(factors)
    return term if term.factors == factors else intern_term(term.factors)


def _rational(coef: RationalLike) -> RationalLike:
    """``coef`` as an int when it is integral, else as a Fraction.

    A bool becomes its int; floats and every other type are refused.
    """
    if type(coef) is int:
        return coef
    if type(coef) is not Fraction:
        if not isinstance(coef, (int, Fraction)):
            raise UnsupportedParams(f"coefficient {coef!r} is not an int or a Fraction")
        coef = Fraction(coef)
    return coef.numerator if coef.denominator == 1 else coef


def _accumulate(acc: dict, term: Term, coef: RationalLike) -> None:
    """acc[term] += coef, deleting the entry when it cancels to zero.

    ``coef`` is an int or a Fraction; the total is stored as ``_rational``
    would return it.
    """
    total = acc.get(term)
    total = coef if total is None else total + coef
    if type(total) is not int and total.denominator == 1:
        total = total.numerator
    if total:
        acc[term] = total
    else:
        acc.pop(term, None)


class LinearCombination:
    """A finite rational linear combination of terms.

    Behaves like an immutable value: arithmetic returns new instances and
    zero coefficients are dropped eagerly, so equality is exact equality of
    the represented expression.  Each operation accumulates its result in
    one fresh dict and never mutates an operand.  The memoized rewrites of
    ``reduce`` hand one instance to every caller, so no method may change
    the entries of an instance after it is built.
    """

    __slots__ = ("_entries", "_sorted")

    def __init__(self, entries: Union[dict, Iterable[tuple[Term, RationalLike]], None] = None):
        acc: dict[Term, RationalLike] = {}
        if entries:
            pairs = entries.items() if isinstance(entries, dict) else entries
            for term, coef in pairs:
                _accumulate(acc, term, _rational(coef))
        self._entries = acc
        self._sorted = None  # the entries in items() order, sorted on first use

    @classmethod
    def _wrap(cls, entries: dict) -> "LinearCombination":
        """Adopt ``entries`` as is: coefficients as ``_rational`` returns them,
        none of them zero."""
        out = object.__new__(cls)
        out._entries = entries
        out._sorted = None
        return out

    # constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "LinearCombination":
        return LinearCombination()

    @staticmethod
    def from_term(term: Term, coef: RationalLike = 1) -> "LinearCombination":
        return LinearCombination([(term, coef)])

    @staticmethod
    def from_atom(atom: Atom, coef: RationalLike = 1) -> "LinearCombination":
        return LinearCombination([(intern_term((atom,)), coef)])

    @staticmethod
    def combine(
        parts: Iterable[tuple["LinearCombination", RationalLike]]
    ) -> "LinearCombination":
        """The sum of ``coef * lc`` over ``parts``, accumulated in one dict."""
        acc: dict[Term, RationalLike] = {}
        for lc, coef in parts:
            coef = _rational(coef)
            unit = coef == 1
            for term, c in lc._entries.items():
                _accumulate(acc, term, c if unit else c * coef)
        return LinearCombination._wrap(acc)

    # inspection -------------------------------------------------------

    def items(self) -> list[tuple[Term, RationalLike]]:
        """Entries in deterministic (weight, structure) order (a fresh list)."""
        if self._sorted is None:
            self._sorted = sorted(self._entries.items(), key=lambda kv: kv[0]._key)
        return list(self._sorted)

    def coefficient(self, term: Term) -> RationalLike:
        return self._entries.get(term, 0)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[tuple[Term, RationalLike]]:
        return iter(self.items())

    # algebra ----------------------------------------------------------

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        return LinearCombination.combine([(self, 1), (other, 1)])

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return LinearCombination.combine([(self, 1), (other, -1)])

    def scale(self, coef: RationalLike) -> "LinearCombination":
        coef = _rational(coef)
        if not coef:
            return LinearCombination()
        return LinearCombination._wrap(
            {t: _rational(c * coef) for t, c in self._entries.items()}
        )

    def __mul__(self, coef: RationalLike) -> "LinearCombination":
        return self.scale(coef)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearCombination":
        return self.scale(-1)

    def product(self, other: "LinearCombination") -> "LinearCombination":
        """Bilinear product, expanding term by term."""
        out: dict[Term, RationalLike] = {}
        for t1, c1 in self._entries.items():
            for t2, c2 in other._entries.items():
                _accumulate(out, intern_term(t1.factors + t2.factors), c1 * c2)
        return LinearCombination._wrap(out)

    def substitute(self, rewrite) -> "LinearCombination":
        """Replace, term by term, every atom that ``rewrite`` maps to a combination.

        ``rewrite(atom)`` returns the combination that replaces ``atom``, or
        ``None`` to keep it; each term becomes the product of its rewritten
        factors.  All terms are collected into one combination.
        """
        acc: dict[Term, RationalLike] = {}
        # unsorted: exact sums do not depend on the order, and render() sorts
        for term, coeff in self._entries.items():
            partial: list[tuple[tuple, RationalLike]] = [((), coeff)]
            for factor in term.factors:
                sub = rewrite(factor)
                if sub is None:
                    partial = [(fs + (factor,), c) for fs, c in partial]
                else:
                    subs = sub._entries.items()
                    partial = [(fs + t.factors, c * k) for fs, c in partial for t, k in subs]
            for fs, c in partial:
                _accumulate(acc, intern_term(fs), c)
        return LinearCombination._wrap(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCombination) and self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    # rendering --------------------------------------------------------

    def render(self) -> str:
        if not self._entries:
            return "0"
        return " + ".join(f"{coef} * {term.render()}" for term, coef in self.items())

    def __repr__(self) -> str:
        return f"LinearCombination({self.render()})"


def _fold(atom: Atom) -> Optional[LinearCombination]:
    """``canonicalize``'s rewrite: None keeps an atom that is already canonical."""
    twin = canonical_atom(atom)
    return None if twin is atom else LinearCombination.from_atom(twin)


def canonicalize(lc: LinearCombination) -> LinearCombination:
    """Fold every atom to its canonical orientation (may merge terms)."""
    return lc.substitute(_fold)


# ---------------------------------------------------------------------------
# parsing

_ATOM_RE = re.compile(r"^(Z|E|MT|W4|W)\((\d+(?:,\d+)*)\)$")
_COEF_RE = re.compile(r"^-?\d+(?:/0*[1-9]\d*)?$")  # no zero denominator

_ARITY = {"Z": (1, 1), "E": (2, 3), "MT": (3, 3), "W": (6, 6)}


@functools.cache
def parse_atom(text: str) -> Atom:
    """Parse one atom literal such as ``MT(2,2,2)`` or ``W(1,2,3,4,0,6)``.

    ``W4`` is accepted as an input alias for ``W``; rendering always
    emits ``W``, so round trips stay stable.  Atoms are memoized per
    literal; a literal that raises is not cached and raises again.
    """
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise InadmissibleIndex(f"cannot parse atom {text!r}")
    kind, argtext = m.groups()
    if kind == "W4":
        kind = "W"
    args = tuple(int(v) for v in argtext.split(","))
    lo, hi = _ARITY[kind]
    if not lo <= len(args) <= hi:
        raise InadmissibleIndex(f"{kind} takes {lo}..{hi} indices, got {len(args)}")
    if kind == "Z":
        return SingleZeta(args[0])
    if kind == "E":
        return EulerSum(args)
    if kind == "MT":
        return MordellTornheim3(*args)
    return WittenSl4(args)


@functools.cache
def parse_term(text: str) -> Term:
    """Parse one term literal such as ``Z(2)*MT(1,1,2)`` or ``1``.

    Memoized per literal, like ``parse_atom``; a literal that raises is
    not cached and raises again.
    """
    text = text.strip()
    if text == "1":
        return intern_term(())
    return intern_term(tuple(parse_atom(p) for p in text.split("*")))


@functools.cache
def _parse_coefficient(text: str) -> RationalLike:
    """One coefficient literal such as ``-3`` or ``3/2``, memoized per
    literal like ``parse_term``; a literal that raises is not cached."""
    if not _COEF_RE.match(text.strip()):
        raise InadmissibleIndex(f"bad coefficient {text!r}")
    return _rational(Fraction(text)) if "/" in text else int(text)


def parse(text: str) -> LinearCombination:
    """Parse the serialized combination grammar; inverse of ``render``.

    A bare term without a coefficient (``MT(2,2,2)``) is accepted with an
    implied coefficient of 1 for CLI convenience.
    """
    text = text.strip()
    if text == "0":
        return LinearCombination.zero()
    acc: dict[Term, RationalLike] = {}
    for piece in text.split(" + "):
        _accumulate(acc, *_parse_piece(piece))
    return LinearCombination._wrap(acc)


@functools.cache
def _parse_piece(piece: str) -> tuple[Term, RationalLike]:
    """One ``coef * term`` piece of ``parse`` (or a bare term, coefficient
    1), memoized per literal over the term and coefficient caches; a
    literal that raises is not cached."""
    piece = piece.strip()
    if " * " in piece:
        coeftext, termtext = piece.split(" * ", 1)
        coef = _parse_coefficient(coeftext)
        return parse_term(termtext), coef
    return parse_term(piece), 1
