"""Dump every certified side of the checked grids, and compare two dumps.

Run from the repository root:

    python scripts/side_diff.py dump OUT [WEIGHT_CAP]
    python scripts/side_diff.py compare A B
    python scripts/side_diff.py renders OUT [WEIGHT_CAP]

``dump`` evaluates the default sweep's families at 1e-8, 1e-10 and 1e-12,
each in a cold workspace, and W(a,b,c,d,0,f) against its complete Euler-sum
reduction on the THM22 grid at 1e-8.  Every grid is cut at WEIGHT_CAP,
``verify.DEFAULT_WEIGHT_CAP`` by default; a larger cap gives the held-out
grids above it (weight 12: 1345 sweep records, weight 14: 2858).  It writes
one line per side of each record: the grid, the tolerance, the identity and
its parameters, the side, the hex midpoint and hex radius (empty when the
side is refused), the cutoff and the record's verdict.

``compare`` reads two dumps of the same grids and cap, say of a parent
commit (A) and of a change (B), and counts, per grid and tolerance and in
total:

* PASS verdicts in each dump, and lost and gained ones: records that PASS
  in one dump only;
* identical sides: same hex midpoint, hex radius and cutoff, or refused in
  both, so a change that claims no numeric change shows every side here;
* disjoint enclosures: sides whose two enclosures share no point, checked
  exactly in rationals;
* wider, tighter and equal sides, by radius, and the largest and the
  smallest radius ratio B / A with the side that reaches it.

A disjoint enclosure means one of the two dumps is wrong.  The exit status
is 1 if a verdict is lost or two enclosures are disjoint, else 0.

``renders`` writes the symbolic layer alone: one line per
``reduce_witten`` call over W(a,b,c,d,0,f) with a..f in 0..6 and
a+b+c+d+f <= WEIGHT_CAP (14 by default: 7678 tuples), for both variants and
all four ``expand_remainder`` / ``expand_mt`` pairs.  A line holds the
tuple, the variant, the flags and the render, or the error's class and
message.  ``cmp`` of two trees' outputs checks that layer bit for bit.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SWEEP_TOLERANCES = (1e-8, 1e-10, 1e-12)
THM22_TOLERANCE = 1e-8
RENDERS_WEIGHT_CAP = 14


def _lines(grid, tol, reports):
    for rep in reports:
        rec = rep.record
        for side, ev in (("lhs", rep.lhs_eval), ("rhs", rep.rhs_eval)):
            value = [ev.midpoint.hex(), ev.radius.hex(), str(ev.terms)] if ev else ["", "", ""]
            fields = [grid, repr(tol), rec.identity_id, repr(rec.parameters), side]
            yield "|".join(fields + value + [rep.verdict]) + "\n"


def _sweep_reports(cfg, weight_cap):
    """The default sweep's records up to ``weight_cap``, built and checked as
    ``verify.sweep`` does, which refuses a cap above its default."""
    from wreduce.verify import DEFAULT_SWEEP_IDS, build_identity, check, default_parameters

    records = [build_identity(i, p) for i in DEFAULT_SWEEP_IDS for p in default_parameters(i, weight_cap)]
    return [check(record, cfg) for record in records]


def _thm22_reports(cfg, weight_cap):
    """W(a,b,c,d,0,f) against its complete reduction, checked by ``verify.check``."""
    from wreduce.exact import LinearCombination, WittenSl4
    from wreduce.reduce import reduce_witten
    from wreduce.verify import IdentityRecord, check, default_parameters

    for a, b, c, d, f in default_parameters("THM22_FINAL", weight_cap):
        atom = WittenSl4((a, b, c, d, 0, f))
        full = reduce_witten(atom, expand_remainder=True, expand_mt=True)
        record = IdentityRecord("THM22_FULL", (a, b, c, d, f), LinearCombination.from_atom(atom), full)
        yield check(record, cfg)


def dump(out: str, weight_cap: int | None = None) -> None:
    from wreduce.series import SummationConfig, clear_caches
    from wreduce.verify import DEFAULT_WEIGHT_CAP

    cap = DEFAULT_WEIGHT_CAP if weight_cap is None else weight_cap
    with open(out, "w") as fh:
        for tol in SWEEP_TOLERANCES:
            clear_caches()
            fh.writelines(_lines("sweep", tol, _sweep_reports(SummationConfig(tolerance=tol), cap)))
        clear_caches()
        cfg = SummationConfig(tolerance=THM22_TOLERANCE)
        fh.writelines(_lines("thm22", THM22_TOLERANCE, _thm22_reports(cfg, cap)))
        clear_caches()


def renders(out: str, weight_cap: int = RENDERS_WEIGHT_CAP) -> None:
    from wreduce.errors import WreduceError
    from wreduce.exact import WittenSl4
    from wreduce.reduce import VARIANTS, reduce_witten

    with open(out, "w") as fh:
        for a, b, c, d, f in itertools.product(range(7), repeat=5):
            if a + b + c + d + f > weight_cap:
                continue
            atom = WittenSl4((a, b, c, d, 0, f))
            for variant in VARIANTS:
                for flags in itertools.product((False, True), repeat=2):
                    try:
                        text = reduce_witten(atom, variant, *flags).render()
                    except WreduceError as exc:
                        text = f"{type(exc).__name__}: {exc.message}"
                    fh.write(f"{atom.s}|{variant}|{flags}|{text}\n")


def _read(path: str) -> dict[tuple, tuple]:
    """(grid, tol, identity, params, side) -> (mid, rad, terms, verdict)."""
    sides = {}
    for line in Path(path).read_text().splitlines():
        *key, mid, rad, terms, verdict = line.split("|")
        value = (float.fromhex(mid), float.fromhex(rad), int(terms)) if mid else None
        sides[tuple(key)] = (value, verdict)
    return sides


def compare(path_a: str, path_b: str) -> int:
    a, b = _read(path_a), _read(path_b)
    if a.keys() != b.keys():
        print(f"the dumps hold different sides: {len(a.keys() - b.keys())} only in A, "
              f"{len(b.keys() - a.keys())} only in B")
        return 1
    stats: dict[tuple, Counter] = {}
    extremes: dict[tuple, list] = {}
    for key in sorted(a):
        group = key[:2]
        count = stats.setdefault(group, Counter())
        (va, verdict_a), (vb, verdict_b) = a[key], b[key]
        if key[4] == "lhs":  # a verdict per record, not per side
            count["records"] += 1
            count["PASS in A"] += verdict_a == "PASS"
            count["PASS in B"] += verdict_b == "PASS"
            count["lost"] += verdict_a == "PASS" != verdict_b
            count["gained"] += verdict_b == "PASS" != verdict_a
        count["sides"] += 1
        count["identical"] += _bits(va) == _bits(vb)
        if va is None or vb is None:
            count["valued in A only"] += vb is None and va is not None
            count["valued in B only"] += va is None and vb is not None
            continue
        (ma, ra, _), (mb, rb, _) = va, vb
        gap = abs(Fraction(ma) - Fraction(mb))
        count["disjoint"] += gap > Fraction(ra) + Fraction(rb)
        count["wider" if rb > ra else "tighter" if rb < ra else "equal radius"] += 1
        if ra > 0:
            ratio = rb / ra
            lo_hi = extremes.setdefault(group, [(ratio, key), (ratio, key)])
            lo_hi[0] = min(lo_hi[0], (ratio, key))
            lo_hi[1] = max(lo_hi[1], (ratio, key))
    total = Counter()
    fields = ("records", "PASS in A", "PASS in B", "lost", "gained", "sides", "identical", "disjoint", "wider",
              "tighter", "equal radius", "valued in A only", "valued in B only")
    for group, count in stats.items():
        total.update(count)
        (lo, lo_key), (hi, hi_key) = extremes.get(group, [(1.0, None), (1.0, None)])
        print(f"{group[0]} @ {group[1]}: " + ", ".join(f"{f} {count[f]}" for f in fields))
        if lo_key is not None:
            print(f"  radius ratio B/A: largest {hi:.4f} ({_name(hi_key)}), "
                  f"smallest {lo:.4f} ({_name(lo_key)})")
    print("total: " + ", ".join(f"{f} {total[f]}" for f in fields))
    return 1 if total["lost"] or total["disjoint"] else 0


def _bits(value):
    """A side's (mid, rad, terms) as the hex text and cutoff of its dump line."""
    return value and (value[0].hex(), value[1].hex(), value[2])


def _name(key: tuple) -> str:
    return f"{key[2]} {key[3]} {key[4]}"


def main(argv: list[str]) -> int:
    if len(argv) in (2, 3) and argv[0] in ("dump", "renders") and all(a.isdigit() for a in argv[2:]):
        (dump if argv[0] == "dump" else renders)(argv[1], *map(int, argv[2:]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
