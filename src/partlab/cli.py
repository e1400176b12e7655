"""Command-line frontend.

Subcommands: count, table, analyze, verify, explore, sparse.

Exit codes: 0 success (or suite pass), 1 usage or parse error, 2 semantic
set error, 3 verification-suite failure.  CSV and JSON output is
deterministic: keys sorted, counts as decimal strings, reals rendered at
a fixed display precision.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from bisect import bisect_left
from itertools import chain, compress, islice
from operator import not_

# bounds, suites and mpmath load inside the commands that use them (table
# --bounds, verify), so count, analyze, explore and sparse never pay for
# them; json and csv load inside _json and _csv, for those formats alone
from .arith import (
    coprime_prefix,
    eventually_strictly_increasing,
    frobenius_threshold,
    gcd_of_set,
    schur_horizon,
)
from .counting import count_partitions, count_support, count_table, finite_coprime_parts
from .setspec import (
    NAT_MULTS,
    InvalidSetError,
    SpecSyntaxError,
    construct_sparse_set,
    parse_natural,
    parse_set_spec,
    read_lines,
)

DISPLAY_DIGITS = 12
MAX_HUMAN_FAILURES = 20

# Largest accepted --n / --upto.  table builds the row p(0..n), n + 1 exact
# integers, and count and explore build at most that row, so this bounds
# what one run allocates; count answers some pairs without the row (see
# counting's docstring).  It admits the largest benchmarked count (dexp:2 to
# 2^20) with room for a doubling.
MAX_N = 2**21


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; the contract wants 1
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="partlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def size(text: str) -> int:
        # ASCII digits only, as in a spec; the SpecSyntaxError (a ValueError)
        # becomes argparse's "invalid value" error
        n = parse_natural(text)
        if not 0 <= n <= MAX_N:
            raise argparse.ArgumentTypeError(f"must be between 0 and {MAX_N}, got {n}")
        return n

    def common(
        p, func, parts=False, mults=False, n=False, upto=False, formats=("table", "csv", "json")
    ):
        p.set_defaults(func=func)
        if parts:
            p.add_argument("--parts", required=True, help="part-set spec")
        if mults:
            p.add_argument("--mults", default="nat", help="multiplicity-set spec")
        if n:
            p.add_argument("--n", type=size, required=True)
        if upto:
            p.add_argument("--upto", type=size, required=True)
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("count", help="exact p(n; parts, mults)")
    common(p, cmd_count, parts=True, mults=True, n=True)

    p = sub.add_parser("table", help="p(0..upto) with optional bound columns")
    common(p, cmd_table, parts=True, mults=True, upto=True)
    p.add_argument(
        "--bounds",
        help="comma-separated bound ids; an unknown id's error lists them all",
    )

    p = sub.add_parser("analyze", help="gcd, coprime prefix, representability")
    common(p, cmd_analyze, parts=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    common(p, cmd_verify, formats=("table", "json"))
    p.add_argument("--suite", help="suite name, or 'all' (default)")
    p.add_argument("--list", action="store_true", help="list suites and parameters")

    p = sub.add_parser("explore", help="zero pattern and growth summary")
    common(p, cmd_explore, parts=True, mults=True, upto=True)

    p = sub.add_parser("sparse", help="build a sparse anchors file from a step table")
    p.set_defaults(func=cmd_sparse)
    p.add_argument("epsilon_file", help="lines 'threshold value', ascending")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", help="anchors file to write (default stdout)")

    return parser


def _emit(chunks, out_path: str | None) -> None:
    """Write an iterable of strings, in order, to out_path or stdout."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)


def _json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_with_list(obj: dict, key: str, items):
    """The chunks of _json({**obj, key: list(items)}) for integer items and
    a key that sorts after every key of obj, 4096 items per chunk, so the
    list is never held."""
    yield _json(obj)[: -len("\n}\n")] + f',\n  "{key}": ['
    sep = "\n    "
    items = iter(items)
    while batch := ",\n    ".join(map(str, islice(items, 4096))):
        yield sep + batch
        sep = ",\n    "
    yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"


def _csv(rows) -> str:
    """Rows as CSV, None as an empty cell; a cell holding a comma (a spec
    such as finite:6,10,15) is quoted."""
    import csv

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _value_formatter():
    """The renderer of one bound value: an mpmath.mpf at DISPLAY_DIGITS, a
    Fraction as num/den, an int in decimal.  Built once per table, so no
    import runs per cell."""
    from fractions import Fraction

    import mpmath

    def format_value(v) -> str:
        if isinstance(v, mpmath.mpf):
            return mpmath.nstr(v, DISPLAY_DIGITS)
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        return str(v)

    return format_value


# ---------------------------------------------------------------------------
# Subcommands

def cmd_count(args) -> int:
    parts = parse_set_spec(args.parts, "parts")
    mults = parse_set_spec(args.mults, "mults")
    value = count_partitions(args.n, parts, mults)
    if args.format == "json":
        payload = _json(
            {
                "count": str(value),
                "mults": mults.spec_string(),
                "n": args.n,
                "parts": parts.spec_string(),
            }
        )
    elif args.format == "csv":
        payload = _csv([("n", "count"), (args.n, value)])
    else:
        payload = f"{value}\n"
    _emit([payload], args.out)
    return 0


def _parse_bound_ids(text: str, known: tuple[str, ...]) -> list[str]:
    ids = [b.strip() for b in text.split(",") if b.strip()]
    for bid in ids:
        if bid not in known:
            raise UsageError(f"unknown bound id {bid!r}; known: {', '.join(known)}")
    return ids


def cmd_table(args) -> int:
    parts = parse_set_spec(args.parts, "parts")
    mults = parse_set_spec(args.mults, "mults")
    bound_ids = []
    if args.bounds:
        from . import bounds

        bound_ids = _parse_bound_ids(args.bounds, bounds.BOUND_IDS)
        format_value = _value_formatter()
    table = count_table(args.upto, parts, mults)
    # bounds.bound_report is looked up per row, so a rebinding of the module
    # attribute (perfbench's tracer) sees every call
    entries = [
        bounds.bound_report(table, n, bound_ids) if bound_ids else ()
        for n in range(args.upto + 1)
    ]

    if args.format == "json":
        rows = []
        for n, row_entries in enumerate(entries):
            row = {"count": str(table.values[n]), "n": n}
            if bound_ids:
                row["bounds"] = {
                    e.bound_id: {
                        "applicable": e.applicable,
                        "direction": e.direction,
                        "satisfied": e.satisfied,
                        "value": format_value(e.value) if e.applicable else None,
                    }
                    for e in row_entries
                }
            rows.append(row)
        payload = _json(
            {
                "mults": mults.spec_string(),
                "parts": parts.spec_string(),
                "rows": rows,
                "upto": args.upto,
            }
        )
    else:
        # one row builder for both renderings; None marks an inapplicable
        # bound.  Either rendering holds the whole payload before it is
        # written: CSV writes every row into one StringIO, and text first
        # holds every row's cells to size its columns.
        def rows():
            yield ["n", "count", *bound_ids]
            for n, row_entries in enumerate(entries):
                yield [str(n), str(table.values[n])] + [
                    format_value(e.value) if e.applicable else None for e in row_entries
                ]

        if args.format == "csv":
            payload = _csv(rows())
        else:
            shown = [["-" if c is None else c for c in row] for row in rows()]
            widths = [max(map(len, column)) for column in zip(*shown)]
            payload = "".join(
                "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in shown
            )
    _emit([payload], args.out)
    return 0


def cmd_analyze(args) -> int:
    parts = parse_set_spec(args.parts, "parts")
    g = gcd_of_set(parts)
    info: dict = {
        "eventually_positive": g == 1,
        "gcd": g,
        "parts": parts.spec_string(),
    }
    if g == 1:
        prefix, gcds = coprime_prefix(parts)
        info["coprime_prefix"] = {
            "elements": list(prefix.elements),
            "gcd_trace": list(gcds),
            "length": len(gcds),
        }
    fc = finite_coprime_parts(parts, NAT_MULTS)
    if fc is not None:
        # the scan's int holds a bit for every n up to Schur's horizon
        if schur_horizon(fc) > MAX_N:
            raise UsageError(f"the Frobenius scan of {parts} passes the limit {MAX_N}")
        info["frobenius_threshold"] = frobenius_threshold(fc)
        info["strictly_increasing"] = eventually_strictly_increasing(fc)

    if args.format == "json":
        payload = _json(info)
    elif args.format == "csv":
        rows = [("key", "value")]
        for key in sorted(info):
            v = info[key]
            if key == "coprime_prefix":
                v = "prefix " + " ".join(str(e) for e in v["elements"])
            rows.append((key, str(v).lower() if isinstance(v, bool) else v))
        payload = _csv(rows)
    else:
        lines = [f"parts: {info['parts']}", f"gcd: {g}"]
        lines.append(f"eventually-positive: {'yes' if g == 1 else 'no'}")
        if "coprime_prefix" in info:
            cp = info["coprime_prefix"]
            elems = ",".join(str(e) for e in cp["elements"])
            trace = ",".join(str(t) for t in cp["gcd_trace"])
            lines.append(f"coprime-prefix: {{{elems}}} (gcd trace {trace})")
        if "frobenius_threshold" in info:
            lines.append(f"frobenius-threshold: {info['frobenius_threshold']}")
        if "strictly_increasing" in info:
            verdict = "yes" if info["strictly_increasing"] else "no"
            lines.append(f"eventually-strictly-increasing: {verdict}")
        payload = "\n".join(lines) + "\n"
    _emit([payload], args.out)
    return 0


def cmd_verify(args) -> int:
    if args.list and (args.suite is not None or args.format == "json"):
        raise UsageError("--list takes no --suite and no --format json")
    from . import suites

    if args.list:
        lines = []
        for name, (_, description, params) in suites.SUITES.items():
            lines.append(f"{name}: {description}")
            lines.append(f"    parameters: {params}")
        _emit(["\n".join(lines) + "\n"], args.out)
        return 0
    name = args.suite or "all"
    if name == "all":
        results = suites.run_all()
    elif name in suites.SUITES:
        results = [suites.run_suite(name)]
    else:
        raise UsageError(f"unknown suite {name!r}; see 'verify --list'")

    if args.format == "json":
        docs = [r.to_json_dict() for r in results]
        payload = _json(docs[0] if len(docs) == 1 else docs)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else f"FAIL ({len(r.failures)} failures)"
            lines.append(f"suite {r.suite}: {status}  cases={r.cases}  {r.elapsed_ms} ms")
            for key, val in r.onsets.items():
                lines.append(f"  onset {key}: {val}")
            for key, val in r.extras.items():
                lines.append(f"  {key}: {val}")
            for f in r.failures[:MAX_HUMAN_FAILURES]:
                inputs = " ".join(f"{k}={v}" for k, v in f.inputs.items())
                lines.append(f"  FAIL {inputs}: expected {f.expected}, got {f.got}")
            if len(r.failures) > MAX_HUMAN_FAILURES:
                lines.append(f"  ... {len(r.failures) - MAX_HUMAN_FAILURES} more")
        payload = "\n".join(lines) + "\n"
    _emit([payload], args.out)
    return 0 if all(r.passed for r in results) else 3


def cmd_explore(args) -> int:
    from array import array
    from statistics import linear_regression

    parts = parse_set_spec(args.parts, "parts")
    mults = parse_set_spec(args.mults, "mults")
    upto = args.upto
    # counts[i] is p(indices[i]): every n for a row, the nonzero n alone for a
    # thin pair's support.  zeros is an iterator and the slope reads two float
    # arrays, so a row costs itself plus 16 bytes per nonzero upper-half n
    result = count_support(upto, parts, mults)
    if isinstance(result, dict):
        indices = sorted(result)
        counts = [result[n] for n in indices]
        zero_count = upto + 1 - len(indices)
        ends = indices[1:] + [upto + 1]
        zeros = chain.from_iterable(map(range, [n + 1 for n in indices], ends))
    else:
        indices, counts = range(upto + 1), result.values
        zero_count = counts.count(0)
        # p(0) = 1, so n = 0 is never among them
        zeros = compress(indices, map(not_, counts))
    max_count = max(counts)
    max_index = indices[counts.index(max_count)]
    # log-log slope over the nonzero upper half; reported, never asserted.
    # Its n are distinct integers in [2, 2^21], and log(n + 1) - log(n) >=
    # 1/(n + 1) is about 10^8 ulps of log(n), so x is never constant
    start = bisect_left(indices, max(2, upto // 2))
    xs = array(
        "d", map(math.log, compress(islice(indices, start, None), islice(counts, start, None)))
    )
    ys = array("d", map(math.log, filter(None, islice(counts, start, None))))
    slope = linear_regression(xs, ys).slope if len(xs) >= 2 else None

    if args.format == "json":
        # "zeros", the last key, is written as it is generated
        payload = _json_with_list(
            {
                "max_count": str(max_count),
                "max_index": max_index,
                "mults": mults.spec_string(),
                "parts": parts.spec_string(),
                "slope": None if slope is None else f"{slope:.4f}",
                "upto": upto,
                "zero_count": zero_count,
            },
            "zeros",
            zeros,
        )
    elif args.format == "csv":
        payload = [
            _csv(
                [
                    ("key", "value"),
                    ("zero_count", zero_count),
                    ("max_count", max_count),
                    ("max_index", max_index),
                    ("slope", None if slope is None else f"{slope:.4f}"),
                ]
            )
        ]
    else:
        lines = [
            f"p(n) = 0 at {zero_count} of {upto} positive n",
        ]
        if zero_count:
            head = ",".join(str(z) for z in islice(zeros, 15))
            more = f" ... ({zero_count - 15} more)" if zero_count > 15 else ""
            lines.append(f"zeros: {head}{more}")
        lines.append(f"max count: {max_count} at n={max_index}")
        if slope is None:
            lines.append("log-log slope: not estimable (too few nonzero points)")
        else:
            lines.append(f"log-log slope over upper half: {slope:.4f}")
        payload = ["\n".join(lines) + "\n"]
    _emit(payload, args.out)
    return 0


def cmd_sparse(args) -> int:
    try:
        raw_lines = read_lines(args.epsilon_file)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.epsilon_file}: {exc}") from exc
    entries: list[tuple[int, int]] = []
    for i, line in enumerate(raw_lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 2:
            raise UsageError(
                f"{args.epsilon_file}:{i}: expected 'threshold value', got {text!r}"
            )
        try:
            entries.append((parse_natural(fields[0]), parse_natural(fields[1])))
        except SpecSyntaxError:
            raise UsageError(
                f"{args.epsilon_file}:{i}: expected integers, got {text!r}"
            ) from None
    sset = construct_sparse_set(entries, source=args.out)
    anchor_lines = "\n".join(str(a) for a in sset.elements) + "\n"
    if args.out:
        _emit([anchor_lines], args.out)
    if args.format == "json":
        doc = {"anchors": list(sset.elements), "out": args.out}
        if args.out:
            doc["spec"] = sset.spec_string()
        sys.stdout.write(_json(doc))
    elif args.out:
        sys.stdout.write(f"{len(sset.elements)} anchors -> {args.out} (use --parts {sset})\n")
    else:
        sys.stdout.write(anchor_lines)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, SpecSyntaxError) as exc:
        print(f"partlab: error: {exc}", file=sys.stderr)
        return 1
    except InvalidSetError as exc:
        print(f"partlab: invalid set: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
