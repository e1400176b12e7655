"""Run one workload's operations inside a single process, optionally traced.

    python perfbench/tracer.py --workload NAME --seed N --mode plain|traced

Needs partlab importable (PYTHONPATH pointing at the checkout's src).
Each operation calls `partlab.cli.main` with stdout captured.  In traced
mode the public functions of each module are wrapped where their callers
look them up, so every call is timed under the layer it belongs to, and
all patches are undone on exit.  The last line of stdout is one JSON
object: per-operation results and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import random
import resource
import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import WORKLOADS, check, classical_upto, load_references, pentagonal

def _public_functions(module) -> list:
    return [
        fn
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == module.__name__
    ]


def _bound_evaluators(bounds) -> list:
    """The public functions of bounds that some BOUND_REGISTRY `value` entry
    calls, read off the names its code (nested lambdas too) refers to.
    Helpers such as harmonic_number or j_of_n, and the certification
    builders, are not evaluators and are not timed as bounds.eval."""
    names, codes = set(), [b.value.__code__ for b in bounds.BOUND_REGISTRY.values()]
    for code in codes:
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return [fn for fn in _public_functions(bounds) if fn.__name__ in names]


class Tracer:
    """Spans around the calls into each layer, with counts taken at the
    same boundaries.  A layer's inclusive time counts only its outermost
    calls; its self time excludes the time of wrapped callees."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.suite_s = defaultdict(float)
        self.counts = Counter()
        self.max_digits = 0
        self.tables = set()
        self._open = []  # seconds spent in wrapped callees, one entry per open span
        self._depth = Counter()
        self._patched = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def span(self, layer, fn, before=None, after=None):
        """fn timed under `layer`; before(args) and after(result) record counts."""
        opened, depth = self._open, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            opened.append(0.0)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                callees = opened.pop()
                depth[layer] -= 1
                self.calls[layer] += 1
                self.self_time[layer] += elapsed - callees
                if not depth[layer]:
                    self.inclusive[layer] += elapsed
                if opened:
                    opened[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kernel_layer(self, args, kwargs):
        self.counts["cells_scanned"] += len(args[0])

    def _table_built(self, table):
        self.tables.add((table.parts, table.mults))
        self.counts["table_entries"] += len(table.values)
        self.counts["table_nonzero"] += len(table.values) - table.values.count(0)

    def _interval(self, args, kwargs):
        self.counts["interval_evals"] += 1
        digits = args[1] if len(args) > 1 else kwargs["digits"]
        self.max_digits = max(self.max_digits, digits)

    def _certify(self, fn, precision_error):
        timed = self.span("bounds.certify", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counts["interval_evals"]
            settled = False
            try:
                result = timed(*args, **kwargs)
                settled = True
                return result
            except precision_error:
                counts["precision_errors"] += 1
                raise
            finally:
                evals = counts["interval_evals"] - before
                counts["escalations"] += max(evals - 1, 0)
                counts["first_try"] += settled and evals == 1

        return wrapper

    def _suite(self, fn):
        timed = self.span("suites", fn)

        @functools.wraps(fn)
        def wrapper(name, *args, **kwargs):
            start = perf_counter()
            try:
                return timed(name, *args, **kwargs)
            finally:
                self.suite_s[name] += perf_counter() - start

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every partlab module global that refers to `original`."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "partlab" or name.startswith("partlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        from partlab import arith, bounds, counting, setspec, suites

        kernel = counting._kernel
        targets = [
            (setspec.parse_set_spec, self.span("setspec.parse", setspec.parse_set_spec)),
            (counting.count_table,
             self.span("counting", counting.count_table, after=self._table_built)),
            (bounds.bound_report, self.span("bounds.report", bounds.bound_report)),
            (bounds.interval_endpoints,
             self.span("bounds.interval", bounds.interval_endpoints, before=self._interval)),
            (suites.run_suite, self._suite(suites.run_suite)),
        ]
        for fn in (kernel.unbounded_layer, kernel.restricted_layer):
            targets.append((fn, self.span("dpcore", fn, before=self._kernel_layer)))
        for fn in (bounds.certified_leq, bounds.certified_geq):
            targets.append((fn, self._certify(fn, bounds.PrecisionError)))
        for fn in _bound_evaluators(bounds):
            targets.append((fn, self.span("bounds.eval", fn)))
        for fn in _public_functions(arith):
            targets.append((fn, self.span("arith", fn)))
        spec_classes = [setspec.IntegerSetSpec]
        for cls in spec_classes:
            spec_classes.extend(cls.__subclasses__())
        try:
            for original, wrapper in targets:
                self._replace_everywhere(original, wrapper)
            for cls in spec_classes:
                if "count_leq" in vars(cls):
                    self._set(cls, "count_leq", self._counted("count_leq_calls", cls.count_leq))
                if "elements_upto" in vars(cls):
                    self._set(cls, "elements_upto",
                              self.span("setspec.enumerate", cls.elements_upto))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float, output_bytes: int) -> dict:
        from partlab.suites import SUITES

        c, calls, incl = self.counts, self.calls, self.inclusive
        certify_calls = calls["bounds.certify"]
        named = sum(t for layer, t in self.self_time.items() if layer != "cli")
        out = {
            "setspec.count_leq_calls": c["count_leq_calls"],
            "setspec.enumerate_calls": calls["setspec.enumerate"],
            "setspec.enumerate_s": incl["setspec.enumerate"],
            "setspec.parse_calls": calls["setspec.parse"],
            "setspec.parse_s": incl["setspec.parse"],
            "arith.calls": calls["arith"],
            "arith.s": incl["arith"],
            "counting.tables_built": calls["counting"],
            "counting.tables_distinct": len(self.tables),
            "counting.distinct_ratio": _ratio(len(self.tables), calls["counting"]),
            "counting.table_s": incl["counting"],
            "counting.self_s": self.self_time["counting"],
            "dpcore.layer_calls": calls["dpcore"],
            "dpcore.cells_scanned": c["cells_scanned"],
            "dpcore.nonzero_ratio": _ratio(c["table_nonzero"], c["table_entries"]),
            "dpcore.s": incl["dpcore"],
            "bounds.eval_calls": calls["bounds.eval"],
            "bounds.eval_s": incl["bounds.eval"],
            "bounds.report_calls": calls["bounds.report"],
            "bounds.report_s": incl["bounds.report"],
            "bounds.certify_calls": certify_calls,
            "bounds.certify_s": incl["bounds.certify"],
            "bounds.interval_evals": c["interval_evals"],
            "bounds.interval_s": incl["bounds.interval"],
            "bounds.escalations": c["escalations"],
            "bounds.max_digits": self.max_digits,
            "bounds.first_try_ratio": _ratio(c["first_try"], certify_calls),
            "bounds.precision_errors": c["precision_errors"],
            "suites.self_s": self.self_time["suites"],
            "cli.self_s": self.self_time["cli"],
            "cli.output_bytes": output_bytes,
            "trace.wall_s": wall_s,
            "trace.coverage_ratio": _ratio(named, wall_s),
        }
        for suite in SUITES:
            out[f"suites.{suite}_s"] = self.suite_s[suite]
        return out


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def run_op(main, argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode()


def compare_kernels(ops, compiled, fallback) -> tuple[dict, list[str]]:
    """Time each count operation's table with both kernels; tables must agree."""
    from partlab.counting import count_table
    from partlab.setspec import parse_set_spec

    rows, problems = {}, []
    for op in ops:
        if op.argv[0] != "count":
            continue
        n = int(op.option("--n"))
        parts = parse_set_spec(op.option("--parts"), "parts")
        mults = parse_set_spec(op.option("--mults", "nat"), "mults")
        seconds, tables = {}, []
        for label, kernel in (("compiled", compiled), ("python", fallback)):
            start = perf_counter()
            tables.append(count_table(n, parts, mults, kernel=kernel).values)
            seconds[label] = perf_counter() - start
        if tables[0] != tables[1]:
            problems.append(f"{op.name}: compiled and python kernels disagree")
        rows[op.name] = {**seconds, "speedup": seconds["python"] / seconds["compiled"]}
    return rows, problems


def run_workload(name: str, seed: int, traced: bool) -> dict:
    from partlab import _dpcore_py, cli, counting

    ops = random.Random(seed).sample(WORKLOADS[name], len(WORKLOADS[name]))
    references = load_references()
    p = pentagonal(classical_upto(ops))
    tracer = Tracer() if traced else None
    results = []
    with tracer.installed() if traced else contextlib.nullcontext():
        main = tracer.span("cli", cli.main) if traced else cli.main
        cpu_start = resource.getrusage(resource.RUSAGE_SELF)
        start = perf_counter()
        for op in ops:
            op_start = perf_counter()
            code, out = run_op(main, op.argv)
            results.append((op, code, out, perf_counter() - op_start))
        wall = perf_counter() - start
        cpu_end = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "wall_s": wall,
        "cpu_s": (cpu_end.ru_utime - cpu_start.ru_utime) + (cpu_end.ru_stime - cpu_start.ru_stime),
        "ops": [
            {
                "name": op.name,
                "size": op.size,
                "exit_code": code,
                "sha256": hashlib.sha256(out).hexdigest(),
                "seconds": seconds,
                "problems": check(op, code, out, references, p),
            }
            for op, code, out, seconds in results
        ],
    }
    if traced:
        report["layers"] = tracer.metrics(wall, sum(len(out) for _, _, out, _ in results))
    elif counting.KERNEL_BACKEND != _dpcore_py.BACKEND:
        report["kernel_comparison"], report["kernel_problems"] = compare_kernels(
            ops, counting._kernel, _dpcore_py
        )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "traced"))
    args = ap.parse_args(argv)
    report = run_workload(args.workload, args.seed, args.mode == "traced")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
