"""Named verification suites behind `partlab verify`.

Each suite checks one documented property of the counting engine against
the bound evaluators at fixed desk-scale parameters.  Parameters are
embedded constants (shown by `verify --list`) so a run is reproducible
from the suite name alone; real arithmetic runs at bounds.DEFAULT_DIGITS
and certification escalates past it by itself.  Suites collect failures
instead of raising; every failure carries the inputs needed to reproduce
it.

A case is recorded through SuiteResult.check(ok, failure): it counts the
case and, only when ok is false, calls failure() for the (inputs,
expected, got) of the record it keeps.  A passing case renders no text.
Cases known to pass together are counted in bulk, and only the others go
through check: slow-growth's odd n outside the support of its thin table,
and sparse-construction's n on an interval where its step functions are
constant and the comparison holds (see _pieces).

Every suite that checks a registry bound over a range of n (eq4,
monotone-lb, harmonic-chain, padberg, eq10, refined, sqrt-lower,
debruijn) does it through _scan, which reads the bound's verdict column
from bounds.verdict_column and checks each applicable n in the asserted
range as one case; only a failure reads the value column for its text.
The comparison itself is made in bounds alone.  An asymptotic property is
asserted on the tail of its range, and its empirical onset is reported by
one rule (_onset) over the whole column: the least applicable n from which
the bound holds to the end of the column.  Other properties are ratio
checks at fixed n with wide documented tolerances.

monotonicity-criterion builds no table per set.  It walks the subsets
of {1..12} with at most 4 elements depth first, keeping only the rows on
the current path, and each row is its parent's row extended by one part
(counting.extend_row): 756 layers for the 721 coprime sets.  The walk
records what each coprime set's row shows, and the cases are then checked
in order of size, each size in combinations order.

slow-growth and debruijn build no table above 2^15.  slow-growth reads
the doubly exponential pair to 2^20 as its ~1400 nonzero entries
(counting.count_support), and debruijn's p(2^17) is count_partitions'
Mahler sum over the table to 2^15.

The JSON form of a result pins elapsed_ms to 0 so repeated runs are
byte-identical; wall time appears only in the human rendering.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections.abc import Callable
from fractions import Fraction
from itertools import repeat
from operator import le
from typing import NamedTuple

import mpmath
from mpmath import iv, mp

from . import bounds
from .arith import eventually_strictly_increasing, frobenius_threshold
from .corpus import BUILTIN_EPSILON_TABLE, CORPUS, CorpusPair
from .counting import (
    count_partitions,
    count_support,
    count_table,
    extend_row,
    finite_coprime_parts,
)
from .setspec import (
    ALL_PARTS,
    NAT_MULTS,
    DoublyExponential,
    Finite,
    Powers,
    WithZero,
    construct_sparse_set,
    step_function_value,
)


class SuiteFailure(NamedTuple):
    inputs: dict
    expected: str
    got: str


class SuiteResult:
    """One suite's cases and failures; onsets and extras are the report's
    named values."""

    def __init__(
        self,
        suite: str,
        cases: int = 0,
        failures: list[SuiteFailure] | None = None,
        onsets: dict[str, int] | None = None,
        elapsed_ms: int = 0,
        extras: dict[str, str] | None = None,
    ):
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.onsets = {} if onsets is None else onsets
        self.elapsed_ms = elapsed_ms
        self.extras = {} if extras is None else extras

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, failure: Callable[[], tuple[dict, str, str]]) -> None:
        """Count one case; if it failed, record failure() = (inputs, expected, got)."""
        self.cases += 1
        if not ok:
            self.failures.append(SuiteFailure(*failure()))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [
                {"inputs": f.inputs, "expected": f.expected, "got": f.got}
                for f in self.failures
            ],
            "onsets": self.onsets,
            # pinned to 0: byte-identical reports across runs
            "elapsed_ms": 0,
        }


def _inputs(pair: CorpusPair, n: int) -> dict:
    return {
        "label": pair.label,
        "parts": str(pair.parts),
        "mults": str(pair.mults),
        "n": n,
    }


def _nstr(x, places: int = 8) -> str:
    return mpmath.nstr(x, places)


def _onset(verdicts: list) -> int:
    """The least applicable n from which the bound holds to the end of the
    column: one past the last failure, or else the first applicable n."""
    failed = [n for n, ok in enumerate(verdicts) if ok is False]
    return failed[-1] + 1 if failed else verdicts.index(True)


def _scan(
    res: SuiteResult, bound_id: str, table, inputs,
    start: int = 0, expected: str | None = None,
) -> int:
    """Check registry bound bound_id at every applicable n >= start of
    table, one case each, and return its onset.  A failure records
    inputs(n), the expected text (by default the bound's direction and
    value) and the quantity the bound is claimed for (p(n) unless the
    registry names another)."""
    verdicts = bounds.verdict_column(bound_id, table)
    b = bounds.BOUND_REGISTRY[bound_id]
    op = "<=" if b.direction == "upper" else ">="
    for n, ok in enumerate(verdicts[start:], start):
        if ok is not None:
            res.check(ok, lambda: (
                inputs(n),
                expected or f"{op} {bounds.value_column(bound_id, table)[n]}",
                str(b.bounded(n, table)),
            ))
    return _onset(verdicts)


# ---------------------------------------------------------------------------
# Suites

EQ4_LIMIT = 200


def suite_product_ceiling() -> SuiteResult:
    """Every exact count stays at or below the truncated product of
    multiplicity counts; all corpus pairs, n <= 200."""
    res = SuiteResult("eq4")
    for pair in CORPUS:
        table = count_table(EQ4_LIMIT, pair.parts, pair.mults)
        _scan(res, "product_upper", table, lambda n: _inputs(pair, n))
    return res


EQ5_N_LIMIT = 30
EQ5_TABLE_LIMIT = EQ5_N_LIMIT * EQ5_N_LIMIT


def suite_average_witness() -> SuiteResult:
    """Some r <= n^2 has p(r) at least product/(n^2+1); all corpus pairs,
    n <= 30 (tables to 900)."""
    res = SuiteResult("eq5")
    for pair in CORPUS:
        table = count_table(EQ5_TABLE_LIMIT, pair.parts, pair.mults)
        for n in range(1, EQ5_N_LIMIT + 1):
            # the search returns only a witness r <= n^2 with p(r) >= threshold
            try:
                bounds.check_existence_lower_bound(n, table)
                ok, missing = True, None
            except LookupError as exc:
                ok, missing = False, str(exc)
            res.check(ok, lambda: (_inputs(pair, n), f"witness r <= {n * n}", missing))
    return res


MONOTONE_LIMIT = 200


def suite_monotone_floor() -> SuiteResult:
    """For corpus pairs whose table is nondecreasing on [0, 200], the
    averaged square-root product floor holds at every n in [1, 200]."""
    res = SuiteResult("monotone-lb")
    applicable = []
    for pair in CORPUS:
        table = count_table(MONOTONE_LIMIT, pair.parts, pair.mults)
        if table.nondecreasing_prefix < len(table.values):
            continue
        applicable.append(pair.label)
        _scan(res, "monotone_lower", table, lambda n: _inputs(pair, n))
    res.extras["nondecreasing_pairs"] = ",".join(applicable)
    return res


SCHUR_CHECKS = "123@2000 within 1%, 357@5000 ratio in [0.9,1.1], deviation shrinks over 500/1000/2000"


def suite_polynomial_ratio() -> SuiteResult:
    """Finite coprime part sets grow like n^(k-1)/((k-1)! prod a): exact
    ratio checks at fixed n, all in rational arithmetic."""
    res = SuiteResult("schur")
    s123 = Finite((1, 2, 3))
    t123 = count_table(2000, s123)
    deviations = []
    for n in (500, 1000, 2000):
        ratio = Fraction(t123.values[n]) / bounds.schur_asymptotic(n, s123)
        deviations.append(abs(ratio - 1))
        res.extras[f"ratio_123_at_{n}"] = f"{float(ratio):.6f}"
    res.check(deviations[-1] <= Fraction(1, 100), lambda: (
        {"parts": "finite:1,2,3", "n": 2000},
        "|exact/asymptotic - 1| <= 1/100",
        res.extras["ratio_123_at_2000"],
    ))
    res.check(deviations[0] >= deviations[1] >= deviations[2], lambda: (
        {"parts": "finite:1,2,3", "n": "500,1000,2000"},
        "deviation from 1 nonincreasing",
        ",".join(f"{float(d):.6f}" for d in deviations),
    ))
    s357 = Finite((3, 5, 7))
    t357 = count_table(5000, s357)
    ratio = Fraction(t357.values[5000]) / bounds.schur_asymptotic(5000, s357)
    res.extras["ratio_357_at_5000"] = f"{float(ratio):.6f}"
    res.check(Fraction(9, 10) <= ratio <= Fraction(11, 10), lambda: (
        {"parts": "finite:3,5,7", "n": 5000},
        "ratio in [9/10, 11/10]",
        res.extras["ratio_357_at_5000"],
    ))
    return res


HRR_RANGE = (200, 500)


def suite_exponential_ratio() -> SuiteResult:
    """Classical counts sit in [0.9, 1.0] of the exponential leading term
    on [200, 500], with the ratio strictly increasing at 200/300/500."""
    res = SuiteResult("hrr")
    table = count_table(HRR_RANGE[1], ALL_PARTS)
    probes = {}
    with mp.workdps(bounds.DEFAULT_DIGITS):
        lo, hi = mpmath.mpf("0.9"), mpmath.mpf("1.0")
        for n in range(HRR_RANGE[0], HRR_RANGE[1] + 1):
            ratio = mpmath.mpf(table.values[n]) / bounds.hrr_term(mp, n)
            res.check(lo <= ratio <= hi, lambda: (
                {"parts": "all", "n": n}, "ratio in [0.9, 1.0]", _nstr(ratio),
            ))
            if n in (200, 300, 500):
                probes[n] = ratio
                res.extras[f"ratio_at_{n}"] = _nstr(ratio)
        res.check(probes[200] < probes[300] < probes[500], lambda: (
            {"parts": "all", "n": "200,300,500"},
            "ratio strictly increasing",
            ",".join(_nstr(probes[n]) for n in (200, 300, 500)),
        ))
    return res


DEBRUIJN_LIMIT = 2**12
DEBRUIJN_RATIO_POINT = 2**16


def suite_binary_log_ceiling() -> SuiteResult:
    """Binary-partition counts respect the log ceiling log(2n+1)*log2(2n)
    up to n = 2^12; the log-count over the leading term at n = 2^16 lies
    in the documented loose band [0.3, 1.5]."""
    res = SuiteResult("debruijn")
    table = count_table(2 * DEBRUIJN_LIMIT, Powers(2))
    _scan(
        res, "debruijn_upper", table, lambda n: {"parts": "pow:2", "mults": "nat", "n": n},
        expected="p(2n) <= exp(log(2n+1) log2(2n))",
    )
    big = count_partitions(2 * DEBRUIJN_RATIO_POINT, Powers(2))
    with mp.workdps(bounds.DEFAULT_DIGITS):
        log_count = mpmath.log(mpmath.mpf(big))
        lead = bounds.debruijn_leading_term(mp, DEBRUIJN_RATIO_POINT)
        ratio = log_count / lead
        ok = mpmath.mpf("0.3") <= ratio <= mpmath.mpf("1.5")
    res.extras["log_ratio_at_pow16"] = _nstr(ratio)
    res.check(ok, lambda: (
        {"parts": "pow:2", "mults": "nat", "n": 2 * DEBRUIJN_RATIO_POINT},
        "log p / leading term in [0.3, 1.5]",
        res.extras["log_ratio_at_pow16"],
    ))
    return res


CHAIN_LIMIT = 200


def suite_part_count_chain() -> SuiteResult:
    """p_S(n) <= n^A(n) e^(H_n) for every corpus part set with unrestricted
    multiplicities, n <= 200; comparisons divide out the exact n^A(n)."""
    res = SuiteResult("harmonic-chain")
    for pair in CORPUS:
        if pair.mults != NAT_MULTS:
            continue
        table = count_table(CHAIN_LIMIT, pair.parts, NAT_MULTS)
        _scan(
            res, "harmonic_chain", table, lambda n: _inputs(pair, n),
            expected="p / n^A(n) <= e^(H_n)",
        )
    return res


PADBERG_LIMIT = 500


def suite_cumulative_floor() -> SuiteResult:
    """Cumulative counts of finite coprime corpus sets dominate
    (n+1)^k/(k! prod a) up to n = 500, with equality throughout for {1}."""
    res = SuiteResult("padberg")
    for pair in CORPUS:
        if finite_coprime_parts(pair.parts, pair.mults) is None:
            continue
        table = count_table(PADBERG_LIMIT, pair.parts)
        _scan(res, "padberg", table, lambda n: _inputs(pair, n))
        if table.finite_coprime.elements == (1,):
            cumulative = table.prefix_sums
            floors = bounds.value_column("padberg", table)
            for n, floor in enumerate(floors):
                res.check(cumulative[n] == floor, lambda: (
                    _inputs(pair, n), f"equality {floor}", str(cumulative[n]),
                ))
    return res


EQ10_LIMIT = 2000
EQ10_ASSERT_FROM = 10


def suite_record_floor() -> SuiteResult:
    """(n+1)^(k-1)/(k! prod a) holds at the record indices of each finite
    coprime corpus table; asserted on [10, 2000], onset reported."""
    res = SuiteResult("eq10")
    onsets = []
    for pair in CORPUS:
        if finite_coprime_parts(pair.parts, pair.mults) is None:
            continue
        table = count_table(EQ10_LIMIT, pair.parts)
        onsets.append(
            _scan(res, "eq10", table, lambda n: _inputs(pair, n), EQ10_ASSERT_FROM)
        )
    res.onsets["eq10"] = max(onsets)
    return res


REFINED_LIMIT = 2000
REFINED_ASSERT_FROM = 10
REFINED_TRANSCENDENTAL_FROM = 100


def suite_prefix_extension_floor() -> SuiteResult:
    """(n+1)^(j-1)/(j! a_1..a_j) with j the least index where j a_j >= n,
    for unrestricted parts: asserted on [10, 2000].  The specialization
    e^(2 sqrt n)/(2 pi n^2) is asserted on [100, 2000].  Onsets and the
    ratio band between the two forms are reported."""
    res = SuiteResult("refined")
    table = count_table(REFINED_LIMIT, ALL_PARTS)
    inputs = lambda n: {"parts": "all", "n": n}
    res.onsets["refined"] = _scan(res, "refined", table, inputs, REFINED_ASSERT_FROM)
    res.onsets["classical_refined"] = _scan(
        res, "classical_refined", table, inputs, REFINED_TRANSCENDENTAL_FROM,
        expected=">= e^(2 sqrt n)/(2 pi n^2)",
    )
    floors = bounds.value_column("refined", table)
    forms = bounds.value_column("classical_refined", table)
    with mp.workdps(bounds.DEFAULT_DIGITS):
        ratios = [
            mpmath.mpf(fl.numerator) / mpmath.mpf(fl.denominator) / form
            for fl, form in zip(floors[REFINED_ASSERT_FROM:], forms[REFINED_ASSERT_FROM:])
        ]
    res.extras["form_ratio_min"] = _nstr(min(ratios))
    res.extras["form_ratio_max"] = _nstr(max(ratios))
    return res


SQRT_LIMIT = 2000
SQRT_ASSERT_FROM = 100


def suite_sqrt_floor() -> SuiteResult:
    """e^(sqrt n)/n lower-bounds the classical count; asserted on
    [100, 2000] with the empirical onset reported."""
    res = SuiteResult("sqrt-lower")
    table = count_table(SQRT_LIMIT, ALL_PARTS)
    res.onsets["sqrt_lower"] = _scan(
        res, "sqrt_lower", table, lambda n: {"parts": "all", "n": n},
        SQRT_ASSERT_FROM, expected=">= e^(sqrt n)/n",
    )
    return res


SLOW_GROWTH_LIMIT = 2**20
SLOW_GROWTH_FROM = 16
SLOW_GROWTH_SLACK = 4


def suite_slow_growth() -> SuiteResult:
    """The doubly exponential pair stays below 4 (lg n)(lg lg n)^(lg lg n)
    on [16, 2^20] and vanishes at every odd n.  The ceiling is checked at
    the running-maximum indices of p, which suffices because the closed
    form increases on the range; the minimal sufficient slack is reported."""
    res = SuiteResult("slow-growth")
    parts = DoublyExponential(2)
    mults = WithZero(DoublyExponential(2))
    # a thin pair: count_support gives the ~1400 nonzero entries of the
    # 2^20 table, so the zero odd entries pass in bulk and each odd n in
    # the support is a failed case
    support = count_support(SLOW_GROWTH_LIMIT, parts, mults)
    nonzero = sorted(support)
    odd = [n for n in nonzero if n % 2]
    res.cases += (SLOW_GROWTH_LIMIT + 1) // 2 - len(odd)
    for n in odd:
        res.check(False, lambda: (
            {"parts": "dexp:2", "mults": "zero|dexp:2", "n": n},
            "0 (gcd of parts is 2)",
            str(support[n]),
        ))
    # records: n = SLOW_GROWTH_FROM, then every strict increase of the
    # running maximum (necessarily at a nonzero entry)
    best = support.get(SLOW_GROWTH_FROM, 0)
    records = [SLOW_GROWTH_FROM]
    for n in nonzero[bisect_right(nonzero, SLOW_GROWTH_FROM):]:
        if support[n] > best:
            best = support[n]
            records.append(n)
    slack = mpmath.mpf(0)
    with mp.workdps(bounds.DEFAULT_DIGITS):
        for n in records:
            count = support.get(n, 0)
            ok = bounds.certified_leq(
                count, lambda n=n: SLOW_GROWTH_SLACK * bounds.slow_growth_term(iv, n)
            )
            res.check(ok, lambda: (
                {"parts": "dexp:2", "mults": "zero|dexp:2", "n": n},
                f"<= {SLOW_GROWTH_SLACK} (lg n)(lg lg n)^(lg lg n)",
                str(count),
            ))
            ratio = count / bounds.slow_growth_term(mp, n)
            if ratio > slack:
                slack = ratio
    res.extras["max_count"] = str(best)
    res.extras["min_sufficient_slack"] = _nstr(slack)
    res.extras["record_indices"] = ",".join(str(n) for n in records)
    return res


CRITERION_MAX_ELEMENT = 12
CRITERION_MAX_K = 4
CRITERION_LIMIT = 2000
CRITERION_TAIL = 200


def _criterion_rows():
    """(parts, p(0..CRITERION_LIMIT; parts)) for every coprime set the
    suite checks, in lexicographic order; each row is its parent's, the set
    without its largest element, extended by one part.  The rows are the
    walk's own: a reader must not change them.

    Adding b + 1 to a set with largest element b makes it coprime, so a set
    with room for another element is a prefix of a coprime set, and a set
    without room is one only if it is coprime itself.
    """

    def walk(elems, row):
        for b in range(elems[-1] + 1 if elems else 1, CRITERION_MAX_ELEMENT + 1):
            child = elems + (b,)
            coprime = math.gcd(*child) == 1
            room = len(child) < CRITERION_MAX_K
            if not (coprime or (room and b < CRITERION_MAX_ELEMENT)):
                continue
            child_row = extend_row(row, b)
            if coprime:
                yield Finite(child), child_row
            if room:
                yield from walk(child, child_row)

    yield from walk((), [1] + [0] * CRITERION_LIMIT)


def suite_increase_criterion() -> SuiteResult:
    """The coprime-(k-1)-subset criterion agrees with observed behavior for
    every coprime set with elements <= 12 and k <= 4: eventually strictly
    increasing means the last non-increase sits before 2000 - 200."""
    res = SuiteResult("monotonicity-criterion")
    observed = []
    descent = None
    for parts, vals in _criterion_rows():
        last_flat = next(
            (n for n in range(CRITERION_LIMIT, 0, -1) if vals[n] <= vals[n - 1]), 0
        )
        observed.append((parts, last_flat))
        if parts.elements == (2, 3):
            # a concrete descent for the reference false case
            start = frobenius_threshold(parts)
            descent = next((
                f"p({n})={vals[n]} > p({n + 1})={vals[n + 1]}"
                for n in range(start, CRITERION_LIMIT) if vals[n] > vals[n + 1]
            ), None)
    # the cases by size, each size in combinations order, as the walk is
    # lexicographic and the sort stable
    observed.sort(key=lambda case: len(case[0].elements))
    for parts, last_flat in observed:
        elems = parts.elements
        verdict = eventually_strictly_increasing(parts)
        empirical = last_flat <= CRITERION_LIMIT - CRITERION_TAIL
        res.check(verdict == empirical, lambda: (
            {"parts": "finite:" + ",".join(str(e) for e in elems)},
            f"criterion {verdict}",
            f"empirical {empirical} (last non-increase at n={last_flat})",
        ))
        if elems == (2, 3) and descent is not None:
            res.extras["counterexample_2_3"] = descent
        if elems == (3, 4, 5):
            res.extras["window_3_4_5"] = (
                f"W={last_flat + 1}, strictly increasing on "
                f"[{last_flat + 1}, {CRITERION_LIMIT}]"
            )
    return res


def _pieces(lo: int, hi: int, cuts) -> list[range]:
    """[lo, hi] cut before every point of cuts inside (lo, hi]: the
    intervals on which a step function that jumps only at those points is
    constant."""
    edges = [lo, *sorted({c for c in cuts if lo < c <= hi}), hi + 1]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def suite_sparse_construction() -> SuiteResult:
    """Anchors built from the tabulated floor(lg lg x) satisfy
    A(n)+1 <= eps(n) on [a_1, 2^16], and the resulting part set keeps
    p(n) <= n^eps(n) there (checked directly in integer arithmetic).

    A(n) steps at the anchors and eps(n) at its thresholds, so each check
    runs once per interval between them (_pieces), one case per n: A(n)+1
    <= eps(n) is one comparison, and p(n) <= n^eps(n) one C-level pass.
    Only an interval that fails records its n one at a time."""
    res = SuiteResult("sparse-construction")
    eps_table = BUILTIN_EPSILON_TABLE
    sset = construct_sparse_set(eps_table)
    res.extras["anchors"] = ",".join(str(a) for a in sset.elements)
    limit = eps_table[-1][0]
    thresholds = [t for t, _ in eps_table]
    for ns in _pieces(sset.elements[0], limit, thresholds + list(sset.elements)):
        eps = step_function_value(eps_table, ns.start)
        count = sset.count_leq(ns.start)
        if count + 1 <= eps:
            res.cases += len(ns)
            continue
        for n in ns:
            res.check(False, lambda: (
                {"parts": str(sset), "n": n}, f"A(n)+1 <= {eps}", f"A(n)={count}",
            ))
    values = count_table(limit, sset, NAT_MULTS).values
    for ns in _pieces(SLOW_GROWTH_FROM, limit, thresholds):
        eps = step_function_value(eps_table, ns.start)
        oks = list(map(le, values[ns.start : ns.stop], map(pow, ns, repeat(eps))))
        if all(oks):
            res.cases += len(ns)
            continue
        for n, ok in zip(ns, oks):
            res.check(ok, lambda: (
                {"parts": str(sset), "mults": "nat", "n": n}, f"<= n^{eps}", str(values[n]),
            ))
    return res


# ---------------------------------------------------------------------------
# Registry

SUITES: dict[str, tuple] = {
    "eq4": (
        suite_product_ceiling,
        "count <= truncated product of multiplicity counts",
        f"all corpus pairs, n <= {EQ4_LIMIT}",
    ),
    "eq5": (
        suite_average_witness,
        "averaged witness r <= n^2 with p(r) >= product/(n^2+1)",
        f"all corpus pairs, n <= {EQ5_N_LIMIT}, tables to {EQ5_TABLE_LIMIT}",
    ),
    "monotone-lb": (
        suite_monotone_floor,
        "sqrt-product floor for nondecreasing tables",
        f"nondecreasing corpus pairs, n <= {MONOTONE_LIMIT}",
    ),
    "schur": (
        suite_polynomial_ratio,
        "polynomial growth ratio for finite coprime sets",
        SCHUR_CHECKS,
    ),
    "hrr": (
        suite_exponential_ratio,
        "classical count over exponential leading term",
        f"ratio in [0.9, 1.0] on [{HRR_RANGE[0]}, {HRR_RANGE[1]}], increasing at 200/300/500",
    ),
    "debruijn": (
        suite_binary_log_ceiling,
        "binary-partition log ceiling and leading-term ratio",
        f"ceiling to n = {DEBRUIJN_LIMIT}, ratio at n = {DEBRUIJN_RATIO_POINT} in [0.3, 1.5]",
    ),
    "harmonic-chain": (
        suite_part_count_chain,
        "p <= n^A(n) e^(H_n) for unrestricted multiplicities",
        f"corpus part sets with mults nat, n <= {CHAIN_LIMIT}",
    ),
    "padberg": (
        suite_cumulative_floor,
        "cumulative count >= (n+1)^k/(k! prod a)",
        f"finite coprime corpus sets, n <= {PADBERG_LIMIT}; equality for {{1}}",
    ),
    "eq10": (
        suite_record_floor,
        "(n+1)^(k-1)/(k! prod a) at record indices",
        f"finite coprime corpus sets, asserted on [{EQ10_ASSERT_FROM}, {EQ10_LIMIT}]",
    ),
    "refined": (
        suite_prefix_extension_floor,
        "prefix-extension floor and its closed-form specialization",
        f"parts all: floor on [{REFINED_ASSERT_FROM}, {REFINED_LIMIT}], "
        f"specialization on [{REFINED_TRANSCENDENTAL_FROM}, {REFINED_LIMIT}]",
    ),
    "sqrt-lower": (
        suite_sqrt_floor,
        "e^(sqrt n)/n floor for the classical count",
        f"asserted on [{SQRT_ASSERT_FROM}, {SQRT_LIMIT}], onset reported",
    ),
    "slow-growth": (
        suite_slow_growth,
        "doubly exponential pair under 4 (lg n)(lg lg n)^(lg lg n)",
        f"n in [{SLOW_GROWTH_FROM}, 2^20]; odd n vanish; slack reported",
    ),
    "monotonicity-criterion": (
        suite_increase_criterion,
        "coprime-subset criterion vs observed monotonicity",
        f"coprime sets, elements <= {CRITERION_MAX_ELEMENT}, k <= {CRITERION_MAX_K}, "
        f"window to {CRITERION_LIMIT} with {CRITERION_TAIL}-wide tail",
    ),
    "sparse-construction": (
        suite_sparse_construction,
        "constructed sparse set keeps p(n) <= n^eps(n)",
        "tabulated floor(lg lg x) to 2^16",
    ),
}


def run_suite(name: str) -> SuiteResult:
    try:
        fn = SUITES[name][0]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    start = time.perf_counter()
    result = fn()
    result.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return result


def run_all() -> list[SuiteResult]:
    return [run_suite(name) for name in SUITES]
