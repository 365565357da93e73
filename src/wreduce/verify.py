"""Identity catalog and certified verification reports.

Each catalog entry pairs two expressions that are provably equal, built
so that the two sides travel through different code: a triple-sum
evaluation against its symbolic reduction, a double sum taken along its
diagonals m1 + m2 = u against the same sum taken along its columns (the
factorization check), a constrained-region lattice sum against the
engine's own dispatch.  ``check`` evaluates both sides with certified
radii and compares:

    gap    = |lhs midpoint - rhs midpoint|
    budget = lhs radius + rhs radius
    PASS     when gap <= budget (the certified intervals overlap)
    FAIL     when gap >  2 * budget (separation survives doubling the
             bound, so slack in the error analysis cannot explain it)
    INCONCLUSIVE otherwise, or when either side refuses to evaluate

``FAMILIES`` holds one row per identity family: its record builder,
its default grid, the weight of a parameter tuple and its named
command-line flags.  ``sweep`` runs whole grids in this process.  Each
report becomes one typed row (``report_row``), which the writers emit
as a pipe-separated line, a CSV summary or JSON.
Reports are byte-stable for a fixed configuration: grids are fixed or
seeded, evaluation is deterministic, and runtimes are zeroed in files
unless timings are requested.

The TYPO_PROBE family is adversarial on purpose: it checks the family
reduction against the *other* published transcription of its inner
binomial weights, so its failures are findings, not regressions.  The
probe's trailing parameter selects the transcription (0 = "eq22",
1 = "paper-final"); ``probe_summary`` reads the verdicts and names the
transcription that survives.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ToleranceUnreachable, UnsupportedParams, WreduceError
from .exact import LinearCombination, MordellTornheim3, SingleZeta, WittenSl4, intern_term
from .reduce import (
    VARIANTS,
    four_term_lhs,
    four_term_rhs,
    pair_recurrence_weights,
    reduce_mt,
    reduce_witten,
    unit_pair_split,
    unit_tail_expand,
)
from .series import Evaluation, SummationConfig, eval_lincomb

DEFAULT_WEIGHT_CAP = 10

_REGION_IDS = frozenset({"REGION_EQ13", "REGION_EQ14", "REGION_EQ15"})

_SYMMETRY_SEED = 20260822
_SYMMETRY_COUNT = 20


@dataclass(frozen=True)
class IdentityRecord:
    """A single verifiable equality between two expressions.

    A record refuses two sides whose nonzero weights differ.  Constants
    carry weight zero, so an exact rational side matches either side.
    """

    identity_id: str
    parameters: tuple[int, ...]
    lhs: LinearCombination
    rhs: LinearCombination
    note: str = ""

    def __post_init__(self):
        wl, wr = ({term.weight for term, _ in side.items()} - {0} for side in (self.lhs, self.rhs))
        if wl and wr and wl != wr:
            raise UnsupportedParams(
                f"{self.identity_id}{self.parameters}: sides have different weights {wl} vs {wr}"
            )


@dataclass(frozen=True)
class Report:
    """Outcome of checking one record at one configuration."""

    record: IdentityRecord
    lhs_eval: Optional[Evaluation]
    rhs_eval: Optional[Evaluation]
    gap: float
    budget: float
    verdict: str
    detail: str
    runtime_ms: int
    tolerance: float


def expected_fail(record: IdentityRecord) -> bool:
    """True for records whose FAIL verdict is the sought-after outcome.

    Only the probe family with the rejected transcription qualifies;
    everything else failing is a genuine verification failure.
    """
    return record.identity_id == "TYPO_PROBE" and record.parameters[-1] == 1


# ---------------------------------------------------------------------------
# record builders

def _build_symmetry(params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 6 or min(params) < 1:
        raise UnsupportedParams(
            "index reversal check takes a six-tuple of positive exponents"
        )
    atom = WittenSl4(tuple(params))
    return IdentityRecord(
        "SYMMETRY_EQ6",
        tuple(params),
        LinearCombination.from_atom(atom),
        LinearCombination.from_atom(atom.mirror()),
        note="same lattice sum read in the reversed variable order",
    )


def _build_factor(params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 4:
        raise UnsupportedParams("factorization check takes (a, b, c, d)")
    a, b, c, d = params
    if a < 1 or b < 1 or c < 2 or d < 1:
        raise UnsupportedParams(
            "factorization check needs a, b, d >= 1 and c >= 2"
        )
    return IdentityRecord(
        "FACTOR_EQ12",
        params,
        LinearCombination.from_atom(WittenSl4((a, b, c, d, 0, 0))),
        LinearCombination.from_term(intern_term((SingleZeta(c), MordellTornheim3(a, b, d)))),
        note="third variable decouples when both of its composites vanish",
    )


def _build_region(ident: str, params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 4 or min(params) < 2:
        raise UnsupportedParams(
            "region checks take (a, b, c, d) with every exponent >= 2; the "
            "coarse remainder caps need that much decay"
        )
    a, b, c, d = params
    slots, weight = {
        "REGION_EQ13": ((a, b, 0, c, 0, d), "tail beyond n1+n2"),
        "REGION_EQ14": ((a, 0, b, c, 0, d), "prefix below n1"),
        "REGION_EQ15": ((0, 0, a, b, c, d), "prefix strictly between n1 and n1+n2"),
    }[ident]
    side = LinearCombination.from_atom(WittenSl4(slots))
    return IdentityRecord(
        ident,
        params,
        side,
        side,
        note=f"rhs recomputed as the pair sum weighted by the power {weight}, "
        "independent of the engine dispatch",
    )


def _build_combine(ident: str, params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 4:
        raise UnsupportedParams("three-region recombination takes (s1, s2, i, t)")
    s1, s2, i, t = params
    if s1 < 1 or s2 < 1 or i < 2 or t < 2:
        raise UnsupportedParams(
            "recombination needs s1, s2 >= 1 and i, t >= 2 so each region "
            "converges on its own"
        )
    above = WittenSl4((s1, s2, 0, t, 0, i))
    if ident == "COMBINE_EQ16":
        below = WittenSl4((i, 0, s2, s1, 0, t))
        between = WittenSl4((0, 0, s1, s2, i, t))
        shifted = MordellTornheim3(s1 + i, s2, t)
    else:
        below = WittenSl4((i, 0, s1, s2, 0, t))
        between = WittenSl4((0, 0, s2, s1, i, t))
        shifted = MordellTornheim3(s2 + i, s1, t)
    lhs = LinearCombination([(intern_term((w,)), 1) for w in (above, below, between)])
    rhs = LinearCombination(
        [
            (intern_term((SingleZeta(i), MordellTornheim3(s1, s2, t))), 1),
            (intern_term((shifted,)), -1),
            (intern_term((MordellTornheim3(s1, s2, t + i),)), -1),
        ]
    )
    return IdentityRecord(
        ident,
        params,
        lhs,
        rhs,
        note="three disjoint regions recombine to the full product lattice "
        "minus its two diagonal slices",
    )


_SURROGATE_X = Fraction(2)
_SURROGATE_Y = Fraction(3)


def _build_lemma21(params: tuple[int, ...]) -> IdentityRecord:
    """Telescoping lemma instances.

    mode 0 / 1 (params ``(mode, a, b, s)``): exact rational check on the
    surrogate family F(a,b,s) = x^a y^b z^s, which satisfies the
    two-index recurrence exactly when z = xy/(py+qx).  mode 0 uses
    (p,q) = (1,1), mode 1 uses (p,q) = (-1,1).  Both sides are explicit
    rationals, so the gap is identically zero when the boundary weights
    are right and macroscopic when they are not.

    mode 2 (params ``(2, a, b, s1, s2, s3)``): the summed realization,
    expanding a triple sum with two live composite exponents into its
    boundary column sums with (p,q) = (1,1); every term is a convergent
    lattice sum evaluated numerically.
    """
    if len(params) < 1:
        raise UnsupportedParams("telescoping instance needs a mode parameter")
    mode = params[0]
    if mode in (0, 1):
        if len(params) != 4:
            raise UnsupportedParams("exact telescoping instance takes (mode, a, b, s)")
        _, a, b, s = params
        if a < 1 or b < 1 or s < 0:
            raise UnsupportedParams("exact telescoping instance needs a, b >= 1, s >= 0")
        p = Fraction(1) if mode == 0 else Fraction(-1)
        q = Fraction(1)
        x, y = _SURROGATE_X, _SURROGATE_Y
        z = x * y / (p * y + q * x)

        def fval(aa: int, bb: int, ss: int) -> Fraction:
            return x**aa * y**bb * z**ss

        left, right = pair_recurrence_weights(a, b, p, q)
        total = Fraction(0)
        for j, w in left:
            total += w * fval(0, j, a + b + s - j)
        for j, w in right:
            total += w * fval(j, 0, a + b + s - j)
        return IdentityRecord(
            "LEMMA21_INSTANCE",
            params,
            LinearCombination.from_term(intern_term(()), fval(a, b, s)),
            LinearCombination.from_term(intern_term(()), total),
            note=f"exact surrogate x^a y^b z^s at (p,q)=({p},{q}), z={z}",
        )
    if mode == 2:
        if len(params) != 6:
            raise UnsupportedParams(
                "summed telescoping instance takes (2, a, b, s1, s2, s3)"
            )
        _, a, b, s1, s2, s3 = params
        if a < 1 or b < 1 or min(s1, s2, s3) < 2:
            raise UnsupportedParams(
                "summed telescoping instance needs a, b >= 1 and s1, s2, s3 >= 2"
            )
        left, right = pair_recurrence_weights(a, b, 1, 1)
        rhs = LinearCombination(
            [(intern_term((WittenSl4((j, 0, s2, s1, 0, s3 + a + b - j)),)), w) for j, w in right]
            + [(intern_term((WittenSl4((0, 0, s2, s1, j, s3 + a + b - j)),)), w) for j, w in left]
        )
        return IdentityRecord(
            "LEMMA21_INSTANCE",
            params,
            LinearCombination.from_atom(WittenSl4((a, 0, s2, s1, b, s3))),
            rhs,
            note="telescoping applied to the two composite exponents of a "
            "convergent triple sum",
        )
    raise UnsupportedParams(f"unknown telescoping mode {mode}")


def _build_hwz(params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 3 or min(params) < 1:
        raise UnsupportedParams("double-sum reduction takes positive (a, b, c)")
    atom = MordellTornheim3(*params)
    return IdentityRecord(
        "HWZ_EQ3",
        params,
        LinearCombination.from_atom(atom),
        reduce_mt(atom),
        note="double sum with a composite factor against its depth-two basis",
    )


def _build_thm21(params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 5:
        raise UnsupportedParams("four-term combination takes (a, b, s1, s2, s3)")
    a, b, s1, s2, s3 = params
    if a < 1 or b < 1 or min(s1, s2, s3) < 2:
        raise UnsupportedParams(
            "four-term combination needs a, b >= 1 and s1, s2, s3 >= 2; "
            "smaller exponents leave individual pieces uncertifiable"
        )
    return IdentityRecord(
        "THM21_EQ5",
        params,
        four_term_lhs(a, b, (s1, s2, s3)),
        four_term_rhs(a, b, (s1, s2, s3)),
        note="signed four-term combination against its double-sum basis; "
        "the divergent column weights cancel symbolically during the build",
    )


def _build_lemma24_18(params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 3:
        raise UnsupportedParams("boundary exchange takes (a, b, d)")
    a, b, d = params
    if a < 1 or b < 1 or d < 1:
        raise UnsupportedParams("boundary exchange needs positive (a, b, d)")
    left, right = pair_recurrence_weights(a, b, 1, 1)
    rhs = LinearCombination(
        [(intern_term((WittenSl4((j, 0, 1, a + b + d - j, 0, 1)),)), w) for j, w in right]
        + [(intern_term((WittenSl4((0, j, 1, a + b + d - j, 0, 1)),)), w) for j, w in left]
    )
    return IdentityRecord(
        "LEMMA24_EQ18",
        params,
        LinearCombination.from_atom(WittenSl4((a, b, 1, d, 0, 1))),
        rhs,
        note="unit-exponent family telescoped to boundary rows in both "
        "collapsed orientations",
    )


def _build_lemma24_19(params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 2:
        raise UnsupportedParams("row split takes (a, d)")
    a, d = params
    if a < 1 or d < 1:
        raise UnsupportedParams("row split needs positive (a, d)")
    tail, rest = unit_pair_split(a, d)
    return IdentityRecord(
        "LEMMA24_EQ19",
        params,
        LinearCombination.from_atom(WittenSl4((a, 0, 1, d, 0, 1))),
        LinearCombination.from_atom(tail) + rest,
        note="middle composite absorbed into the total one, leaving a tail "
        "triple sum plus explicit depth-three sums",
    )


def _build_lemma24_20(params: tuple[int, ...]) -> IdentityRecord:
    if len(params) != 2:
        raise UnsupportedParams("tail expansion takes (a, D)")
    a, dd = params
    if a < 1 or dd < 2:
        raise UnsupportedParams("tail expansion needs a >= 1 and a cap >= 2")
    return IdentityRecord(
        "LEMMA24_EQ20",
        params,
        LinearCombination.from_atom(WittenSl4((a, 0, 1, 0, 0, dd))),
        unit_tail_expand(a, dd),
        note="tail triple sum ordered by partial sums into depth-three "
        "Euler sums",
    )


def _build_reduction(identity_id: str, params: tuple[int, ...]) -> IdentityRecord:
    """W(a,b,c,d,0,f) against one peeling step in the transcription v.

    THM22_FINAL takes (a, b, c, d, f) and peels in the validated
    transcription, v = 0.  TYPO_PROBE takes (a, b, c, d, f, v) with v in
    {0, 1}; given five parameters it appends v = 1, the rejected one.
    """
    probe = identity_id == "TYPO_PROBE"
    if probe and len(params) == 5:
        params += (1,)
    if len(params) != 5 + probe or min(params[:5]) < 1 or params[5:] not in ((), (0,), (1,)):
        raise UnsupportedParams(
            "transcription probe takes positive (a, b, c, d, f[, v]) with v in {0, 1}"
            if probe
            else "family reduction takes positive (a, b, c, d, f)"
        )
    a, b, c, d, f = params[:5]
    variant = VARIANTS[params[5] if probe else 0]
    atom = WittenSl4((a, b, c, d, 0, f))
    lhs = LinearCombination.from_atom(atom)
    # at c = f = 1 peeling returns its input untouched: the display is the identity
    rhs = lhs if c == 1 and f == 1 else reduce_witten(atom, variant=variant)
    return IdentityRecord(
        identity_id,
        params,
        lhs,
        rhs,
        note=f"one peeling step under the {variant!r} transcription of the inner "
        "binomial weights",
    )


# ---------------------------------------------------------------------------
# the catalog: default grids and one row per family

def _mirror6(s: tuple[int, ...]) -> tuple[int, ...]:
    return (s[2], s[1], s[0], s[4], s[3], s[5])


def symmetry_tuples(weight_cap: int = 18, count: int = _SYMMETRY_COUNT) -> list[tuple[int, ...]]:
    """Seeded sample of exponent tuples from {1,2,3}^6, self-images excluded.

    Drawing stops at ``count`` tuples, or once every tuple that qualifies
    (sum within the cap, not its own mirror) has been drawn.
    """
    qualifying = sum(
        1
        for s in itertools.product((1, 2, 3), repeat=6)
        if sum(s) <= weight_cap and s != _mirror6(s)
    )
    rng = random.Random(_SYMMETRY_SEED)
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(out) < min(count, qualifying):
        s = tuple(rng.randint(1, 3) for _ in range(6))
        if sum(s) > weight_cap or s == _mirror6(s) or s in seen:
            continue
        seen.add(s)
        out.append(s)
    return out


def _positive_tuples(length: int, total_cap: int) -> list[tuple[int, ...]]:
    """All positive integer tuples of the given length with sum <= cap."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        # leave at least 1 for each later slot
        for v in range(1, budget - (remaining - 1) + 1):
            rec(prefix + (v,), remaining - 1, budget - v)

    if total_cap >= length:
        rec((), length, total_cap)
    return out


_FACTOR_GRID = [
    (2, 2, 3, 2),
    (1, 2, 2, 2),
    (2, 1, 2, 2),
    (1, 1, 2, 2),
    (2, 2, 2, 2),
    (3, 2, 2, 1),
]

_REGION_GRID = [(2, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 2)]

_COMBINE_GRID = [(2, 2, 2, 2), (1, 2, 2, 2), (2, 1, 2, 3), (2, 2, 3, 2)]

_LEMMA21_GRID = [
    (mode, a, b, s)
    for mode in (0, 1)
    for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 3)]
    for s in (0, 1)
] + [(2, 1, 1, 2, 2, 2), (2, 2, 1, 2, 2, 2)]

_THM21_GRID = [
    (a, b, s1, s2, s3)
    for a in (1, 2, 3)
    for b in (1, 2, 3)
    for s1 in (2, 3)
    for s2 in (2, 3)
    for s3 in (2, 3)
]

_TYPO_PROBE_GRID = [
    pt + (v,)
    for pt in [(1, 1, 2, 1, 1), (2, 1, 2, 1, 2), (1, 2, 1, 1, 2), (2, 1, 1, 1, 2)]
    for v in (0, 1)
]


@dataclass(frozen=True)
class Family:
    """One catalog family: how it builds, grids, weighs and is spelled."""

    build: Callable[[tuple[int, ...]], IdentityRecord]
    # candidate points for a weight cap; default_parameters drops the heavy ones
    grid: Callable[[int], Sequence[tuple[int, ...]]]
    # the command-line flags of the parameters, in order; ("s", n) takes
    # n values, or any number when n is 0
    flags: tuple[tuple[str, int], ...]
    weight: Callable[[tuple[int, ...]], int] = sum


_ABCD = (("a", 1), ("b", 1), ("c", 1), ("d", 1))
_S2IT = (("s", 2), ("i", 1), ("t", 1))

FAMILIES: dict[str, Family] = {
    "SYMMETRY_EQ6": Family(_build_symmetry, symmetry_tuples, (("s", 6),)),
    "FACTOR_EQ12": Family(_build_factor, lambda cap: _FACTOR_GRID, _ABCD),
    "REGION_EQ13": Family(partial(_build_region, "REGION_EQ13"), lambda cap: _REGION_GRID, _ABCD),
    "REGION_EQ14": Family(partial(_build_region, "REGION_EQ14"), lambda cap: _REGION_GRID, _ABCD),
    "REGION_EQ15": Family(partial(_build_region, "REGION_EQ15"), lambda cap: _REGION_GRID, _ABCD),
    "COMBINE_EQ16": Family(partial(_build_combine, "COMBINE_EQ16"), lambda cap: _COMBINE_GRID, _S2IT),
    "COMBINE_EQ17": Family(partial(_build_combine, "COMBINE_EQ17"), lambda cap: _COMBINE_GRID, _S2IT),
    # the exact surrogate records (modes 0 and 1) weigh nothing
    "LEMMA21_INSTANCE": Family(
        _build_lemma21,
        lambda cap: _LEMMA21_GRID,
        (("mode", 1), ("a", 1), ("b", 1), ("s", 0)),
        weight=lambda p: sum(p[1:]) if p[0] == 2 else 0,
    ),
    "HWZ_EQ3": Family(_build_hwz, partial(_positive_tuples, 3), (("a", 1), ("b", 1), ("c", 1))),
    "THM21_EQ5": Family(_build_thm21, lambda cap: _THM21_GRID, (("a", 1), ("b", 1), ("s", 3))),
    # the lemma 2.4 records carry that much weight beyond their parameters
    "LEMMA24_EQ18": Family(
        _build_lemma24_18,
        lambda cap: _positive_tuples(3, cap - 2),
        (("a", 1), ("b", 1), ("d", 1)),
        weight=lambda p: sum(p) + 2,
    ),
    "LEMMA24_EQ19": Family(
        _build_lemma24_19,
        lambda cap: _positive_tuples(2, cap - 2),
        (("a", 1), ("d", 1)),
        weight=lambda p: sum(p) + 2,
    ),
    "LEMMA24_EQ20": Family(
        _build_lemma24_20,
        lambda cap: [(a, dm1 + 1) for a, dm1 in _positive_tuples(2, cap - 2)],
        (("a", 1), ("d", 1)),
        weight=lambda p: sum(p) + 1,
    ),
    "THM22_FINAL": Family(
        partial(_build_reduction, "THM22_FINAL"), partial(_positive_tuples, 5), _ABCD + (("f", 1),)
    ),
    "TYPO_PROBE": Family(
        partial(_build_reduction, "TYPO_PROBE"),
        lambda cap: _TYPO_PROBE_GRID,
        _ABCD + (("f", 1),),
        weight=lambda p: sum(p[:5]),
    ),
}

IDENTITY_IDS = tuple(FAMILIES)

# the probe is opt-in: its whole point is to fail, which would poison a
# default health check
DEFAULT_SWEEP_IDS = tuple(i for i in IDENTITY_IDS if i != "TYPO_PROBE")


def _family(identity_id: str) -> Family:
    if identity_id not in FAMILIES:
        raise UnsupportedParams(
            f"unknown identity id {identity_id!r}; known ids: {', '.join(IDENTITY_IDS)}"
        )
    return FAMILIES[identity_id]


def _integer(x, what: str) -> int:
    """``x`` as a plain int through ``operator.index``: a float or any other
    non-integer is refused, not truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise UnsupportedParams(f"{what} {x!r} is not an integer") from None


def build_identity(identity_id: str, parameters: Sequence[int]) -> IdentityRecord:
    """Instantiate one catalog identity at concrete integer parameters."""
    return _family(identity_id).build(tuple(_integer(x, "parameter") for x in parameters))


def default_parameters(identity_id: str, weight_cap: int = DEFAULT_WEIGHT_CAP) -> list[tuple[int, ...]]:
    """The deterministic parameter grid of one identity family.

    Tuples whose total weight exceeds ``weight_cap`` are dropped; exact
    rational records count as weight zero and always survive.  A negative
    or non-integer cap is refused.
    """
    family = _family(identity_id)
    weight_cap = _integer(weight_cap, "weight cap")
    if weight_cap < 0:
        raise UnsupportedParams(f"weight cap {weight_cap} is negative")
    return [p for p in family.grid(weight_cap) if family.weight(p) <= weight_cap]


# ---------------------------------------------------------------------------
# the constrained-region cross evaluator
#
# Deliberately naive: lattice sums over the square box n1, n2 <= N, prefix
# and tail weight tables built in place, and coarse closed-form caps for
# everything outside the box.  It shares no code with the engine's
# dispatch, which is the point.  The caps use zeta(x) <= _ZCAP for
# x >= 2, which is why the region grids insist on exponents >= 2.
#
# The box is summed along its diagonals u = n1 + n2: entry u - 2 of the
# full np.convolve of two length-N arrays sums the cells of diagonal u,
# and one dot against weights in u finishes the box.  One rounding model:
# a sum of n products, each factor within two ulps, errs by at most
# gamma_n = (n + 2) EPS times the sum of their magnitudes, in any order.
# np.convolve takes one dot per output, never an FFT, so output k, of
# n_k = min(k + 1, 2N - 1 - k) products, carries gamma_{n_k} c[k]; entry
# k of a running sum carries gamma_k P[k]; and the final dot carries
# gamma_n sum |w s| plus w times the radii of s.

_EPS = 2.3e-16
_ZCAP = 1.6449340668482273 + 1e-12
_REGION_LADDER = (500, 1500, 4000)


def _gamma(n):
    return (n + 2) * _EPS


def _diagonals(x: np.ndarray, y: np.ndarray, xfac=None) -> tuple[np.ndarray, np.ndarray]:
    """c[k] = sum_{i+j=k} x[i] y[j] for x, y >= 0 of length N, with radii.

    With x[i] known to within xfac[i] x[i], xfac nondecreasing, output k
    adds xfac[min(k, N - 1)] c[k], since it reads i <= min(k, N - 1) only.
    """
    c = np.convolve(x, y)
    k = np.arange(c.size)
    g = _gamma(np.minimum(k + 1, c.size - k))
    if xfac is None:
        return c, g * c
    return c, (g + (1.0 + g) * xfac[np.minimum(k, x.size - 1)]) * c


def _power_tail_table(limit: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """t[u] encloses sum_{v>u} v^-d to within trad[u], for u = 0..limit = L.

    A running sum from v = L down to u + 1, on top of the part beyond L,
    which a convex decreasing summand puts between the trapezoid and the
    midpoint rules: int_{L+1}^inf + (L+1)^-d / 2 and int_{L+1/2}^inf.
    """
    lo = (limit + 1.0) ** (1 - d) / (d - 1) + (limit + 1.0) ** -d / 2
    hi = (limit + 0.5) ** (1 - d) / (d - 1)
    terms = np.arange(limit, 0, -1, dtype=np.float64) ** float(-d)
    t = np.cumsum(np.concatenate(([(lo + hi) / 2], terms)))[::-1]
    # entry u sums limit - u + 1 terms; the bracket and its rounding on top
    trad = _gamma(np.arange(limit + 1, 0, -1, dtype=np.float64)) * t
    return t, trad + ((hi - lo) / 2 + 4 * _EPS * hi)


def _tail_cap(base: int, p: int) -> float:
    """Upper bound for the sum of n^-p over n > base (p >= 2)."""
    return base ** (1 - p) / (p - 1)


def _region_remainder(identity_id: str, params: tuple[int, ...], box: int) -> float:
    """Closed-form cap on everything outside the box, known before the box is summed."""
    a, b, c, d = params
    if identity_id == "REGION_EQ13":
        gamma = c + d - 1
        return _ZCAP * (_tail_cap(box, a + gamma) + _tail_cap(box, b + gamma)) / (d - 1)
    if identity_id == "REGION_EQ14":
        return _ZCAP * _ZCAP * (_tail_cap(box, c + d) + _tail_cap(box, b + d))
    return _ZCAP * _ZCAP * (_tail_cap(box, a + d) + _tail_cap(box, b + d))


def _by_diagonal(identity_id: str, params: tuple[int, ...], box: int):
    """The box n1, n2 <= box as sum_u w[u] s[u], u = 2..2 box: (w, s, radius of s)."""
    a, b, c, d = params
    n = np.arange(1, box + 1, dtype=np.float64)
    u = np.arange(2, 2 * box + 1, dtype=np.float64)
    pairs, prad = _diagonals(n ** float(-a), n ** float(-b))
    if identity_id == "REGION_EQ13":
        # sum over v > n1+n2 of v^-d n1^-a n2^-b (n1+n2)^-c
        t, trad = _power_tail_table(4 * box, d)
        t, trad = t[2 : 2 * box + 1], trad[2 : 2 * box + 1]
        return u ** float(-c), pairs * t, prad * t + trad * (pairs + prad)
    if identity_id == "REGION_EQ14":
        # sum over v < n1 of v^-a n1^-c n2^-b (n1+n2)^-d; P_a(n1 - 1) is
        # an (n1 - 1)-term running sum
        pref = np.concatenate(([0.0], np.cumsum(n[:-1] ** float(-a))))
        inner, irad = _diagonals(pref * n ** float(-c), n ** float(-b), _gamma(np.arange(box)))
        return u ** float(-d), inner, irad
    # sum over n1 < v < n1+n2 of v^-c n1^-a n2^-b (n1+n2)^-d: P_c(u - 1)
    # pairs(u) - sum_{n1+n2=u} n1^-a P_c(n1) n2^-b, with P_c(m) an m-term
    # running sum; the difference is charged a rounding of each part
    pref = np.cumsum(np.arange(1, 2 * box, dtype=np.float64) ** float(-c))
    inner, irad = _diagonals(n ** float(-a) * pref[:box], n ** float(-b), _gamma(n))
    outer = pref * pairs
    orad = pref * prad + _gamma(u - 1) * pref * (pairs + prad)
    return u ** float(-d), outer - inner, orad + irad + _EPS * (outer + inner)


def _region_value(identity_id: str, params: tuple[int, ...], cfg: SummationConfig) -> Evaluation:
    tol = cfg.tolerance
    for box in _REGION_LADDER:
        remainder = _region_remainder(identity_id, params, box)
        radius = remainder / 2
        if radius > tol:
            continue  # the radius is at least remainder / 2, so this rung cannot certify
        w, s, srad = _by_diagonal(identity_id, params, box)
        total = float(w @ s)
        g = _gamma(w.size)
        mid = total + remainder / 2  # rounded once more, hence EPS * mid
        radius += g * float(w @ np.abs(s)) + (1.0 + g) * float(w @ srad) + _EPS * mid
        if radius <= tol:
            return Evaluation(mid, radius, box)
    raise ToleranceUnreachable(
        f"constrained-region sum for {identity_id}{params} cannot certify below "
        f"{radius:.3e} at box {box}, above the requested {tol:.3e}"
    )


# ---------------------------------------------------------------------------
# checking and sweeping

def check(record: IdentityRecord, cfg: Optional[SummationConfig] = None) -> Report:
    """Evaluate both sides of a record and compare with certified radii."""
    cfg = cfg or SummationConfig()
    t0 = time.perf_counter()
    lhs_eval = rhs_eval = None
    detail = ""
    try:
        lhs_eval = eval_lincomb(record.lhs, cfg)
        if record.identity_id in _REGION_IDS:
            rhs_eval = _region_value(record.identity_id, record.parameters, cfg)
        else:
            rhs_eval = eval_lincomb(record.rhs, cfg)
    except WreduceError as exc:
        detail = f"{exc.code}: {exc.message}"
    if detail:
        gap = math.nan
        budget = math.nan
        verdict = "INCONCLUSIVE"
    else:
        gap = abs(lhs_eval.midpoint - rhs_eval.midpoint)
        budget = lhs_eval.radius + rhs_eval.radius
        if gap <= budget:
            verdict = "PASS"
        elif gap > 2 * budget:
            verdict = "FAIL"
        else:
            verdict = "INCONCLUSIVE"
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return Report(
        record,
        lhs_eval,
        rhs_eval,
        gap,
        budget,
        verdict,
        detail,
        runtime_ms,
        cfg.tolerance,
    )


def sweep(
    ids: Optional[Sequence[str]] = None,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    cfg: Optional[SummationConfig] = None,
    threads: int = 1,
) -> list[Report]:
    """Check every default grid point of the chosen families, in this process.

    Report order is the deterministic grid order.  Every atom has one
    certified value, whatever was evaluated before it, so no report depends
    on what the caches already hold.  Per-record evaluation errors become
    INCONCLUSIVE verdicts; the sweep itself never aborts on one record.
    ``threads`` is ignored and kept only for callers that still pass it.
    """
    weight_cap = _integer(weight_cap, "weight cap")
    if weight_cap > DEFAULT_WEIGHT_CAP:
        raise UnsupportedParams(
            f"weight cap {weight_cap} exceeds the configured limit {DEFAULT_WEIGHT_CAP}"
        )
    if isinstance(ids, str):
        # a string is a sequence too, of one-letter ids
        raise UnsupportedParams(f"ids {ids!r} is one string; give a list of ids, such as [{ids!r}]")
    cfg = cfg or SummationConfig()
    chosen = DEFAULT_SWEEP_IDS if ids is None else dict.fromkeys(ids)
    records = [
        build_identity(ident, params)
        for ident in chosen
        for params in default_parameters(ident, weight_cap)
    ]
    # through the module global, so a patched ``check`` sees every record
    return [check(r, cfg) for r in records]


def failure_count(reports: Sequence[Report]) -> int:
    """FAIL verdicts that are genuine failures (probe findings excluded)."""
    return sum(
        1 for r in reports if r.verdict == "FAIL" and not expected_fail(r.record)
    )


def inconclusive_count(reports: Sequence[Report]) -> int:
    return sum(
        1
        for r in reports
        if r.verdict == "INCONCLUSIVE" and not expected_fail(r.record)
    )


def probe_summary(reports: Sequence[Report]) -> str:
    """One-line reading of the transcription probe's verdicts."""
    probe = [r for r in reports if r.record.identity_id == "TYPO_PROBE"]
    if not probe:
        return ""
    stats = {0: [0, 0], 1: [0, 0]}
    for r in probe:
        v = r.record.parameters[-1]
        stats[v][0] += 1
        if r.verdict == "FAIL":
            stats[v][1] += 1
    clean = [v for v in (0, 1) if stats[v][0] and not stats[v][1]]
    dirty = [v for v in (0, 1) if stats[v][1]]
    if len(clean) == 1 and len(dirty) == 1:
        ok, bad = clean[0], dirty[0]
        return (
            f"typo probe: variant {VARIANTS[ok]!r} validated; "
            f"variant {VARIANTS[bad]!r} failed at {stats[bad][1]} of "
            f"{stats[bad][0]} grid points"
        )
    if dirty and not clean:
        return "typo probe: every transcription checked failed somewhere; nothing validated"
    return (
        "typo probe: no transcription failed on this grid; widen the grid "
        "to discriminate"
    )


# ---------------------------------------------------------------------------
# report rendering

_LINE_FIELDS = (
    "identity_id",
    "params",
    "lhs",
    "rhs",
    "lhs_mid",
    "lhs_rad",
    "rhs_mid",
    "rhs_rad",
    "gap",
    "budget",
    "verdict",
    "runtime_ms",
    "detail",
)


def report_row(rep: Report, timings: bool = False) -> dict:
    """The ``_LINE_FIELDS`` of one report, typed, with None where a value is absent.

    The text and CSV writers format this row cell by cell; JSON carries it
    as it is.  Runtimes read 0 unless timings are requested.
    """
    rec = rep.record
    le, re_ = rep.lhs_eval, rep.rhs_eval
    values = (
        rec.identity_id,
        list(rec.parameters),
        rec.lhs.render(),
        rec.rhs.render(),
        le.midpoint if le else None,
        le.radius if le else None,
        re_.midpoint if re_ else None,
        re_.radius if re_ else None,
        None if math.isnan(rep.gap) else rep.gap,
        None if math.isnan(rep.budget) else rep.budget,
        rep.verdict,
        rep.runtime_ms if timings else 0,
        rep.detail,
    )
    return dict(zip(_LINE_FIELDS, values))


def _cell(value) -> str:
    """One text or CSV cell of a report row; a pipe never splits a line."""
    if value is None:
        return ""
    if isinstance(value, list):
        return "(" + ",".join(map(str, value)) + ")"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value).replace("|", "/")


def format_report_line(rep: Report, timings: bool = False) -> str:
    return "|".join(map(_cell, report_row(rep, timings).values()))


def format_report_lines(reports: Sequence[Report], timings: bool = False) -> str:
    """The line-oriented report body, with a probe summary when relevant."""
    lines = [format_report_line(r, timings) for r in reports]
    summary = probe_summary(reports)
    if summary:
        lines.append("# " + summary)
    return "\n".join(lines) + "\n" if lines else ""


def format_summary_csv(reports: Sequence[Report], timings: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_LINE_FIELDS)
    for rep in reports:
        writer.writerow(map(_cell, report_row(rep, timings).values()))
    return buf.getvalue()


def format_reports_json(reports: Sequence[Report], timings: bool = False) -> str:
    """The report rows as one JSON document, with a probe summary when relevant."""
    doc: dict = {"reports": [report_row(r, timings) for r in reports]}
    summary = probe_summary(reports)
    if summary:
        doc["probe_summary"] = summary
    return json.dumps(doc, sort_keys=True)


def write_reports(
    reports: Sequence[Report],
    path: str,
    timings: bool = False,
) -> str:
    """Write the line report to ``path`` and a CSV next to it.

    Returns the path of the CSV summary.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report_lines(reports, timings))
    csv_path = path + ".summary.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(format_summary_csv(reports, timings))
    return csv_path
