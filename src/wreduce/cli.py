"""Command-line front end.

Four subcommands:

    wreduce eval "MT(2,2,2)"          certified numeric evaluation
    wreduce reduce 2 2 2 2 2 --full   symbolic reduction of W(a,b,c,d,0,f)
    wreduce verify THM21_EQ5 --a 1 --b 2 --s 2 2 2
    wreduce sweep --weight 8 --out report.txt

Configuration resolves flag > WREDUCE_<FLAG> environment variable >
default.  Exit codes are a stable contract: 0 all pass, 1 verification
failure, 2 usage error, 3 convergence or tolerance error.

The numeric modules (``series``, ``verify``, and numpy with them) are
imported by the subcommands that evaluate, so ``reduce`` loads none of
them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InadmissibleIndex, UnsupportedParams, WreduceError
from .exact import parse
from .reduce import VARIANTS, reduce_witten

if TYPE_CHECKING:
    from .series import SummationConfig

_FORMATS = ("text", "json", "csv")

# environment fallbacks mirror the long flags with a WREDUCE_ prefix
_ENV_SPEC = {
    "tol": ("WREDUCE_TOL", float),
    "format": ("WREDUCE_FORMAT", str),
    "out": ("WREDUCE_OUT", str),
    "variant": ("WREDUCE_VARIANT", str),
    "weight": ("WREDUCE_WEIGHT", int),
    "ids": ("WREDUCE_IDS", str),
}

# verify's named parameter flags that take one value; --s takes several
_INT_FLAGS = ("a", "b", "c", "d", "f", "i", "t", "mode")


class _UsageError(Exception):
    pass


def _resolve(args: argparse.Namespace, name: str, default):
    """flag > environment > default, with typed env parsing."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    env_name, conv = _ENV_SPEC[name]
    raw = os.environ.get(env_name)
    if raw is None or raw == "":
        return default
    try:
        return conv(raw)
    except ValueError as exc:
        raise _UsageError(f"bad {env_name} value {raw!r}: {exc}") from exc


def _config(args: argparse.Namespace) -> SummationConfig:
    from .series import SummationConfig

    return SummationConfig(tolerance=_resolve(args, "tol", 1e-6))


def _format(args: argparse.Namespace) -> str:
    fmt = _resolve(args, "format", "text")
    if fmt not in _FORMATS:
        raise _UsageError(f"unknown format {fmt!r}; choose from {', '.join(_FORMATS)}")
    return fmt


def _variant(args: argparse.Namespace) -> str:
    variant = _resolve(args, "variant", "eq22")
    if variant not in VARIANTS:
        raise _UsageError(
            f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}"
        )
    return variant


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") or not text else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") or not text else text + "\n")


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args: argparse.Namespace) -> int:
    from .series import eval_lincomb

    cfg = _config(args)
    fmt = _format(args)
    lc = parse(args.expression)
    t0 = time.perf_counter()
    ev = eval_lincomb(lc, cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    if fmt == "json":
        text = json.dumps(
            {
                "expression": lc.render(),
                "midpoint": ev.midpoint,
                "radius": ev.radius,
                "terms": ev.terms,
                "elapsed_ms": round(elapsed_ms, 3),
            },
            sort_keys=True,
        )
    elif fmt == "csv":
        text = "expression,midpoint,radius,terms,elapsed_ms\n" + ",".join(
            [
                '"' + lc.render() + '"',
                repr(ev.midpoint),
                repr(ev.radius),
                str(ev.terms),
                f"{elapsed_ms:.3f}",
            ]
        )
    else:
        text = (
            f"{ev.midpoint!r} +/- {ev.radius:.3e}"
            f"  (terms={ev.terms}, elapsed={elapsed_ms:.1f} ms)"
        )
    _emit(text, _resolve(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# reduce

def _cmd_reduce(args: argparse.Namespace) -> int:
    from .exact import WittenSl4

    fmt = _format(args)
    variant = _variant(args)
    a, b, c, d, f = args.indices
    if min(a, b, c, d, f) < 1:
        raise _UsageError("reduce takes five positive integers a b c d f")
    atom = WittenSl4((a, b, c, d, 0, f))
    expand = bool(args.full)
    lc = reduce_witten(
        atom,
        variant=variant,
        expand_remainder=expand,
        expand_mt=expand or bool(args.mt_expand),
    )
    if fmt == "json":
        text = json.dumps(
            {
                "input": f"W({a},{b},{c},{d},0,{f})",
                "variant": variant,
                "full": expand,
                "terms": len(lc),
                "reduction": lc.render(),
            },
            sort_keys=True,
        )
    elif fmt == "csv":
        text = "input,variant,reduction\n" + ",".join(
            [f'"W({a},{b},{c},{d},0,{f})"', variant, '"' + lc.render() + '"']
        )
    else:
        text = lc.render()
    _emit(text, _resolve(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# verify

def _verify_params(args: argparse.Namespace) -> tuple[int, ...]:
    from .verify import FAMILIES, IDENTITY_IDS

    ident = args.identity_id
    if ident not in FAMILIES:
        raise _UsageError(
            f"unknown identity id {ident!r}; known ids: {', '.join(IDENTITY_IDS)}"
        )
    if args.variant is not None and ident != "TYPO_PROBE":
        raise _UsageError(f"--variant applies to TYPO_PROBE only, not {ident}")
    given = [name for name in _INT_FLAGS + ("s",) if getattr(args, name) is not None]
    if args.params and given:
        raise _UsageError(
            f"{ident}: give the parameters positionally or by flag, not both (--{given[0]})"
        )
    if args.params:
        values = list(args.params)
    else:
        values = _named_params(args, ident, FAMILIES[ident].flags, given)
    # v comes from --variant or WREDUCE_VARIANT; unset, the builder picks 1.
    # WREDUCE_VARIANT is checked on every identity but used by the probe only.
    variant = _variant(args) if _resolve(args, "variant", None) is not None else None
    if ident == "TYPO_PROBE" and variant is not None:
        index = VARIANTS.index(variant)
        if len(values) == 5:
            values.append(index)
        elif len(values) == 6 and values[5] != index:
            raise _UsageError(
                f"TYPO_PROBE parameter v={values[5]} contradicts variant {variant!r}"
            )
    return tuple(values)


def _named_params(args: argparse.Namespace, ident: str, flags, given: list[str]) -> list[int]:
    stray = [name for name in given if name not in dict(flags)]
    if stray:
        raise _UsageError(f"{ident} takes no --{stray[0]}")
    values: list[int] = []
    for name, arity in flags:
        got = getattr(args, name, None)
        if got is None:
            raise _UsageError(
                f"{ident} needs --{name} (or give all parameters positionally)"
            )
        if name == "s":
            if arity and len(got) != arity:
                raise _UsageError(f"{ident} takes {arity} values for --s, got {len(got)}")
            values.extend(got)
        else:
            values.append(got)
    return values


def _write_reports(reports, fmt: str, timings: bool, out: Optional[str]) -> Optional[str]:
    """Emit reports in ``fmt``; returns the CSV path when text went to files."""
    from . import verify

    if fmt == "text" and out:
        return verify.write_reports(reports, out, timings)
    writer = {
        "text": verify.format_report_lines,
        "csv": verify.format_summary_csv,
        "json": verify.format_reports_json,
    }[fmt]
    _emit(writer(reports, timings), out)
    return None


def _verdict_exit(reports, allow_inconclusive: bool) -> int:
    from . import verify

    if verify.failure_count(reports):
        return 1
    if verify.inconclusive_count(reports) and not allow_inconclusive:
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    cfg = _config(args)
    fmt = _format(args)
    params = _verify_params(args)
    record = verify.build_identity(args.identity_id, params)
    reports = [verify.check(record, cfg)]
    out = _resolve(args, "out", None)
    csv_path = _write_reports(reports, fmt, bool(args.timings), out)
    if csv_path:
        print(f"{reports[0].verdict}: wrote {out} and {csv_path}")
    return _verdict_exit(reports, args.allow_inconclusive)


# ---------------------------------------------------------------------------
# sweep

def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import verify

    cfg = _config(args)
    fmt = _format(args)
    weight = _resolve(args, "weight", verify.DEFAULT_WEIGHT_CAP)
    ids_text = _resolve(args, "ids", None)
    ids = None
    if ids_text:
        ids = [piece.strip() for piece in ids_text.split(",") if piece.strip()]
        if not ids:
            # a sweep of nothing would pass a health check that checks nothing
            raise _UsageError(f"identity ids {ids_text!r} name no family")
        unknown = [i for i in ids if i not in verify.IDENTITY_IDS]
        if unknown:
            raise _UsageError(
                f"unknown identity ids: {', '.join(unknown)}; "
                f"known ids: {', '.join(verify.IDENTITY_IDS)}"
            )
    reports = verify.sweep(ids=ids, weight_cap=weight, cfg=cfg)
    out = _resolve(args, "out", None)
    csv_path = _write_reports(reports, fmt, bool(args.timings), out)
    if csv_path:
        print(f"wrote {out} and {csv_path}")
    verdicts = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
    for rep in reports:
        verdicts[rep.verdict] += 1
    print(
        f"{len(reports)} records: {verdicts['PASS']} PASS, "
        f"{verdicts['FAIL']} FAIL, {verdicts['INCONCLUSIVE']} INCONCLUSIVE",
        file=sys.stderr,
    )
    summary = verify.probe_summary(reports)
    if summary:
        print(summary, file=sys.stderr)
    return _verdict_exit(reports, args.allow_inconclusive)


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sub: argparse.ArgumentParser, evaluates: bool = True) -> None:
    if evaluates:
        sub.add_argument("--tol", type=float, default=None, help="certified radius target")
    sub.add_argument(
        "--format", choices=_FORMATS, default=None, help="output format"
    )
    sub.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreduce",
        description="Reduce and verify rank-3 Witten zeta values",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate an expression numerically")
    p_eval.add_argument("expression", help='e.g. "MT(2,2,2)" or "Z(2)*E(2,1)"')
    _add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_red = subs.add_parser("reduce", help="reduce W(a,b,c,d,0,f) symbolically")
    p_red.add_argument("indices", type=int, nargs=5, metavar="N")
    p_red.add_argument(
        "--variant", choices=VARIANTS, default=None,
        help="binomial-weight transcription to use",
    )
    p_red.add_argument(
        "--full", action="store_true",
        help="expand remainders and double sums down to Euler sums",
    )
    p_red.add_argument(
        "--mt-expand", action="store_true", dest="mt_expand",
        help="expand double sums into depth-two Euler sums",
    )
    _add_common(p_red, evaluates=False)
    p_red.set_defaults(func=_cmd_reduce)

    p_ver = subs.add_parser("verify", help="check one catalog identity")
    p_ver.add_argument("identity_id", metavar="IDENTITY")
    p_ver.add_argument("params", type=int, nargs="*", metavar="N",
                       help="parameters in catalog order")
    for name in _INT_FLAGS:
        p_ver.add_argument(f"--{name}", type=int, default=None)
    p_ver.add_argument("--s", type=int, nargs="+", default=None)
    p_ver.add_argument(
        "--variant", choices=VARIANTS, default=None,
        help="transcription selector for the typo probe",
    )
    p_ver.add_argument("--timings", action="store_true")
    p_ver.add_argument("--allow-inconclusive", action="store_true",
                       dest="allow_inconclusive")
    _add_common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_sw = subs.add_parser("sweep", help="check whole identity grids")
    p_sw.add_argument("--ids", default=None,
                      help="comma-separated identity ids (default: all but the probe)")
    p_sw.add_argument("--weight", type=int, default=None, help="total weight cap")
    p_sw.add_argument("--timings", action="store_true")
    p_sw.add_argument("--allow-inconclusive", action="store_true",
                      dest="allow_inconclusive")
    _add_common(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold --help's 0 through
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InadmissibleIndex, UnsupportedParams) as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 2
    except WreduceError as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 3
    except OSError as exc:
        path = getattr(exc, "filename", None) or "output"
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
