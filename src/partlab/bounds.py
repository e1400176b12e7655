"""Evaluators for the growth bounds on p(n; S, M), and rigorous comparison
of exact counts against them.

Two value families, kept strictly apart:

* polynomial / factorial bounds evaluate as exact rationals (Fraction),
  so inequality checks are plain integer arithmetic;
* transcendental bounds are written once each, as a formula over an
  mpmath context (debruijn_log_term, sqrt_lower_term, ...).  Evaluated
  under mp, the formula gives the displayed HighPrecisionReal; evaluated
  under iv, it gives an outward-rounded enclosure, and a verdict is
  claimed only when the exact side clears the whole enclosure, so it
  would survive any amount of extra precision.  When an enclosure is too
  wide to decide, precision is escalated, from DEFAULT_DIGITS up to
  MAX_DIGITS.  No function but the escalation step interval_endpoints
  takes a precision: a verdict does not depend on where it starts, and
  values are computed at DEFAULT_DIGITS.

Directions are from the point of view of the exact count: an "upper"
bound claims exact <= value, a "lower" bound claims exact >= value.  The
exact side is p(n) unless a bound names another quantity (the cumulative
count for padberg, p(n) / n^A(n) for harmonic_chain).

Whether a registry bound holds is decided in one place, per table.  Each
bound has two columns over the n of a table, built on first use and kept
on the table (CountTable.bound_columns, keyed by (kind, bound id)), so
they belong to its values and not to (parts, mults):

* value_column: _Bound.value at every n the bound applies to, None
  elsewhere, transcendental values at DEFAULT_DIGITS;
* verdict_column: the verdict at every applicable n, None elsewhere and
  for asymptotic reference values.  An exact value is compared with the
  exact side directly.  An enclosed term never decreases from its
  _Bound.increasing_from on, so certify_increasing certifies it there by
  blocks: one interval check settles a whole block of n, and a block that
  does not settle is halved, down to single n, which get the pointwise
  certified_leq / certified_geq with their escalation.  Below that n every
  n is certified pointwise.  Either way each verdict is the pointwise one.

bound_report is a lookup into the two columns, and the verification
suites scan the same columns over their ranges of n.  The table-wide
facts the bounds need are also computed once per table, not once per n:
prefix sums, record flags, the nondecreasing prefix and the finite coprime
part set live on CountTable; H_0..H_N come from harmonic_numbers(N) and
the product ceilings for 0..N from product_upper_column, each cached for
the last table.  Thresholds are integers throughout: set elements are
integers, so M(n/a) = M(n // a).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import mpmath
from mpmath import iv, mp

from .arith import FiniteCoprimeSet, gcd_of_set
from .counting import CountTable, has_all_multiplicities
from .setspec import ALL_PARTS, IntegerSetSpec, InvalidSetError, Powers

# The working precision is fixed, not an option.  Values are shown at 12
# digits (cli.DISPLAY_DIGITS), which 50 covers with room to spare, and a
# verdict starts at 50 and escalates by itself, up to MAX_DIGITS, until the
# enclosure decides it; a starting precision changes neither.
DEFAULT_DIGITS = 50
MAX_DIGITS = 3200


class HighPrecisionReal(NamedTuple):
    """An mpmath value computed at DEFAULT_DIGITS."""

    value: mpmath.mpf

    def __str__(self) -> str:
        return mpmath.nstr(self.value, DEFAULT_DIGITS)


class PrecisionError(ArithmeticError):
    """Comparison still ambiguous at the maximum working precision."""


def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise PrecisionError("interval endpoint is not finite")
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if sign else f


def interval_endpoints(builder: Callable[[], "iv.mpf"], digits: int) -> tuple[Fraction, Fraction]:
    """Evaluate an interval expression at the given precision; endpoints as
    exact binary rationals."""
    old = iv.prec
    iv.dps = digits
    try:
        val = builder()
        # read endpoints before restoring: lazy constants (iv.pi alone, say)
        # materialize only on access, at whatever precision is then current
        lo, hi = val._mpi_
    finally:
        iv.prec = old
    return _raw_to_fraction(lo), _raw_to_fraction(hi)


def _certify(
    exact: int | Fraction,
    builder: Callable[[], "iv.mpf"],
    want_leq: bool,
) -> bool:
    d = DEFAULT_DIGITS
    while d <= MAX_DIGITS:
        lo, hi = interval_endpoints(builder, d)
        if want_leq:
            if exact <= lo:
                return True
            if exact > hi:
                return False
        else:
            if exact >= hi:
                return True
            if exact < lo:
                return False
        d *= 2
    raise PrecisionError(f"cannot separate {exact} from bound at {MAX_DIGITS} digits")


def certified_leq(exact, builder) -> bool:
    """Rigorous verdict of exact <= bound; never flips with more precision."""
    return _certify(exact, builder, True)


def certified_geq(exact, builder) -> bool:
    """Rigorous verdict of exact >= bound."""
    return _certify(exact, builder, False)


def certify_increasing(
    ns: list[int],
    exact: list[int | Fraction],
    enclosure: Callable[[int], "iv.mpf"],
    upper: bool,
) -> list[bool]:
    """Rigorous verdicts of exact[i] <= B(ns[i]) (upper) or exact[i] >=
    B(ns[i]) (lower) for every i, where enclosure(n) encloses B(n) and B
    never decreases along the ascending ns.

    Because B never decreases, one check settles a block ns[a..b] (Moore,
    Interval Analysis, 1966): for an upper bound, exact[i] <= max
    exact[a..b] <= lo B(ns[a]) <= B(ns[i]); for a lower bound, exact[i] >=
    min exact[a..b] >= hi B(ns[b]) >= B(ns[i]).  Block checks run once, at
    DEFAULT_DIGITS.  A block that does not settle is split in half, and a
    block of one n goes to certified_leq / certified_geq, so a failing n,
    and any PrecisionError, is exactly the pointwise one.
    """
    certify = certified_leq if upper else certified_geq
    verdicts: list = [None] * len(ns)
    ends = {}  # index -> endpoints; a block shares its edge with one half
    blocks = [(0, len(ns) - 1)] if ns else []
    while blocks:
        a, b = blocks.pop()
        if a == b:
            verdicts[a] = certify(exact[a], lambda n=ns[a]: enclosure(n))
            continue
        edge = a if upper else b
        if edge not in ends:
            ends[edge] = interval_endpoints(lambda n=ns[edge]: enclosure(n), DEFAULT_DIGITS)
        lo, hi = ends[edge]
        window = exact[a : b + 1]
        if (max(window) <= lo) if upper else (min(window) >= hi):
            verdicts[a : b + 1] = [True] * len(window)
        else:
            mid = (a + b) // 2
            blocks += [(mid + 1, b), (a, mid)]
    return verdicts


def _hp(expr: Callable[[], mpmath.mpf]) -> HighPrecisionReal:
    with mp.workdps(DEFAULT_DIGITS):
        return HighPrecisionReal(expr())


# ---------------------------------------------------------------------------
# Exact rational bounds

def product_upper_bound(n: int, parts: IntegerSetSpec, mults: IntegerSetSpec) -> int:
    """prod over parts a of M(n/a), truncated where the factor becomes 1.

    Elements are integers, so M(n/a) = M(n // a).  A factor is 1 exactly
    when only multiplicity 0 fits, so only _parts_with_factors contribute.
    """
    out = 1
    for a in _parts_with_factors(n, parts, mults):
        out *= mults.count_leq(n // a)
    return out


def _parts_with_factors(n: int, parts: IntegerSetSpec, mults: IntegerSetSpec) -> list[int]:
    """The parts a whose factor M(n // a) exceeds 1, i.e. a * m <= n for
    the least positive multiplicity m; no part at all when 0 is the only
    multiplicity."""
    try:
        least = mults.min_positive()
    except InvalidSetError:
        return []
    return parts.elements_upto(n // least)


class ExistenceWitness(NamedTuple):
    r: int
    witness: int
    threshold: Fraction


def check_existence_lower_bound(n: int, table: CountTable) -> ExistenceWitness:
    """Smallest r <= n^2 with p(r) >= prod M(n/a_i) / (n^2 + 1), read from a
    table of the pair that reaches n^2.

    Such r always exists: the multiplicity assignments bounded by n/a_i
    produce prod M(n/a_i) partitions of integers <= n^2, so some value
    <= n^2 is hit at least the average number of times.  A missing witness
    is therefore a counting bug, reported as LookupError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if table.upto < n * n:
        raise ValueError(f"table reaches {table.upto}; the witness search needs {n * n}")
    threshold = Fraction(product_upper_bound(n, table.parts, table.mults), n * n + 1)
    for r in range(n * n + 1):
        if table.values[r] >= threshold:
            return ExistenceWitness(r, table.values[r], threshold)
    raise LookupError(f"no witness r <= {n * n}; counting is inconsistent")


def monotone_lower_bound(n: int, parts: IntegerSetSpec, mults: IntegerSetSpec) -> Fraction:
    """(1/(n+1)) prod over parts a of |{mu in M : mu * a <= sqrt(n)}|.

    Exact: mu * a <= sqrt(n) iff mu * a <= isqrt(n) for integers, so the
    product is product_upper_bound(isqrt(n)).  Meaningful as a lower bound
    only when p(.; S, M) is nondecreasing.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(product_upper_bound(math.isqrt(n), parts, mults), n + 1)


@lru_cache(maxsize=1)
def product_upper_column(
    upto: int, parts: IntegerSetSpec, mults: IntegerSetSpec
) -> tuple[int, ...]:
    """product_upper_bound(n, parts, mults) for n = 0..upto, in one pass.

    The factor M(n // a) of part a grows only at n = m * a with m a positive
    multiplicity, from k to k + 1 when m is the k-th smallest one; every
    other factor is unchanged from n - 1.  So each n costs one exact
    multiply and divide by the factors that grow there.  Cached for the
    last (upto, parts, mults) asked, which is the table being reported.
    """
    num = [1] * (upto + 1)
    den = [1] * (upto + 1)
    for a in _parts_with_factors(upto, parts, mults):
        positive = [m for m in mults.elements_upto(upto // a) if m > 0]
        for k, m in enumerate(positive, start=1):
            num[m * a] *= k + 1
            den[m * a] *= k
    column = [1]
    for n in range(1, upto + 1):
        column.append(column[-1] * num[n] // den[n])
    return tuple(column)


def schur_asymptotic(n: int, cset: FiniteCoprimeSet) -> Fraction:
    """n^(k-1) / ((k-1)! a_1 ... a_k), the polynomial growth law for finite
    coprime part sets."""
    k = cset.k
    return Fraction(n ** (k - 1), math.factorial(k - 1) * cset.product())


def padberg_lower(n: int, cset: FiniteCoprimeSet) -> Fraction:
    """(n+1)^k / (k! a_1 ... a_k), a lower bound for the cumulative count r'(n)."""
    k = cset.k
    return Fraction((n + 1) ** k, math.factorial(k) * cset.product())


def schur_style_point_lower(n: int, cset: FiniteCoprimeSet) -> Fraction:
    """(n+1)^(k-1) / (k! a_1 ... a_k); valid at record indices of p(.; A)."""
    k = cset.k
    return Fraction((n + 1) ** (k - 1), math.factorial(k) * cset.product())


def j_of_n(n: int, parts: IntegerSetSpec) -> int:
    """Least j >= 1 with j * a_j >= n, where a_j is the j-th smallest part."""
    if n < 1:
        raise ValueError("n must be positive")
    for j, a in enumerate(parts.iter_elements(), start=1):
        if j * a >= n:
            return j
    raise ValueError("finite part set exhausted before j * a_j reached n")


def refined_lower_bound(n: int, parts: IntegerSetSpec) -> Fraction:
    """(n+1)^(j-1) / (j! a_1 ... a_j) with j = j_of_n(n), the optimized
    prefix-extension lower bound; requires gcd(parts) = 1."""
    g = gcd_of_set(parts)
    if g != 1:
        raise ValueError(f"part set has gcd {g}; bound needs a coprime set")
    j = j_of_n(n, parts)
    prefix = []
    for a in parts.iter_elements():
        prefix.append(a)
        if len(prefix) == j:
            break
    return Fraction((n + 1) ** (j - 1), math.factorial(j) * math.prod(prefix))


def harmonic_number(n: int) -> Fraction:
    """H_n as an exact rational."""
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


@lru_cache(maxsize=1)
def harmonic_numbers(upto: int) -> tuple[Fraction, ...]:
    """(H_0, ..., H_upto) as exact rationals, by one running sum; cached
    for the last upto asked."""
    terms = (Fraction(1, j) for j in range(1, upto + 1))
    return tuple(accumulate(terms, initial=Fraction(0)))


# ---------------------------------------------------------------------------
# Transcendental bounds.  Each term is one formula over an mpmath context:
# under mp it gives the displayed value, under iv the enclosure a verdict
# is certified against.

def debruijn_log_term(ctx, n: int):
    """log(2n+1) * log2(2n)."""
    return ctx.log(2 * n + 1) * ctx.log(2 * n) / ctx.log(2)


def sqrt_lower_term(ctx, n: int):
    """e^sqrt(n) / n."""
    return ctx.exp(ctx.sqrt(n)) / n


def classical_refined_term(ctx, n: int):
    """e^(2 sqrt(n)) / (2 pi n^2)."""
    return ctx.exp(2 * ctx.sqrt(n)) / (2 * ctx.pi * n * n)


def exp_harmonic_term(ctx, h: Fraction):
    """e^h for an exact rational h."""
    return ctx.exp(ctx.mpf(h.numerator) / h.denominator)


def slow_growth_term(ctx, n: int):
    """(lg n) (lg lg n)^(lg lg n) with base-2 logs.  log(x, 2) and power
    keep the exact points exact: at n = 2^16 the value is 4096 exactly."""
    lg_n = ctx.log(n, 2)
    lg_lg = ctx.log(lg_n, 2)
    return lg_n * ctx.power(lg_lg, lg_lg)


def hrr_leading_term(n: int) -> HighPrecisionReal:
    """(1/(4 n sqrt(3))) exp(pi sqrt(2n/3)), the classical leading term."""
    if n < 1:
        raise ValueError("n must be positive")
    return _hp(
        lambda: mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(2 * n) / 3))
        / (4 * n * mpmath.sqrt(3))
    )


def debruijn_leading_term(n: int) -> HighPrecisionReal:
    """(1/(2 log 2)) (log(n / log n))^2: leading log-asymptotic of binary
    partitions of 2n.  Needs n >= 3 so log log n > 0."""
    if n < 3:
        raise ValueError("n must be at least 3")
    return _hp(
        lambda: (mpmath.log(n / mpmath.log(n))) ** 2 / (2 * mpmath.log(2))
    )


def debruijn_upper_bound(n: int) -> HighPrecisionReal:
    """log(2n+1) * log2(2n), an upper bound for log of the binary-partition
    count of 2n."""
    if n < 1:
        raise ValueError("n must be positive")
    return _hp(lambda: debruijn_log_term(mp, n))


def harmonic_chain_bound(
    n: int, parts: IntegerSetSpec, h: Fraction | None = None
) -> HighPrecisionReal:
    """n^A(n) * e^(H_n) with A(n) the part-counting function; upper bound for
    p(n; parts, all multiplicities).  h is H_n when the caller has it."""
    if n < 1:
        raise ValueError("n must be positive")
    a_n = parts.count_leq(n)
    if h is None:
        h = harmonic_number(n)
    return _hp(lambda: mpmath.mpf(n) ** a_n * exp_harmonic_term(mp, h))


def classical_sqrt_lower(n: int) -> HighPrecisionReal:
    """e^sqrt(n) / n; holds for the classical p(n) once n is large enough."""
    if n < 1:
        raise ValueError("n must be positive")
    return _hp(lambda: sqrt_lower_term(mp, n))


def classical_refined_comparison(n: int) -> HighPrecisionReal:
    """e^(2 sqrt(n)) / (2 pi n^2): the refined lower bound specialized to
    parts = all positive integers."""
    if n < 1:
        raise ValueError("n must be positive")
    return _hp(lambda: classical_refined_term(mp, n))


def slow_growth_closed_form(n: int) -> HighPrecisionReal:
    """(lg n) (lg lg n)^(lg lg n) with base-2 logs; needs n >= 16."""
    if n < 16:
        raise ValueError("n must be at least 16")
    return _hp(lambda: slow_growth_term(mp, n))


# ---------------------------------------------------------------------------
# Per-n bound report

@dataclass(frozen=True)
class BoundEntry:
    bound_id: str
    direction: str  # "upper" | "lower" | "asymptotic"
    applicable: bool
    value: object | None = None  # int | Fraction | HighPrecisionReal
    satisfied: bool | None = None  # None for asymptotic reference values


@dataclass(frozen=True)
class BoundReport:
    n: int
    exact: int
    entries: tuple[BoundEntry, ...]


@dataclass(frozen=True)
class _Bound:
    """One registry bound.

    A bound whose value is transcendental gives, with its enclosure,
    increasing_from: the least n from which the enclosed term never
    decreases over the n the bound applies to, so that verdict_column may
    certify it by blocks.  The two come together.  Proof sketches:

    - debruijn_upper, 2: log(2m+1) and log2(2m) are positive and increasing
      in m = n // 2 for m >= 1, so their product and its exp increase.
    - harmonic_chain, 1: e^(H_n) increases with H_n; the exact n^A(n) is
      divided out on the exact side, not enclosed.
    - sqrt_lower, 5: log(e^sqrt(n) / n) has derivative 1/(2 sqrt n) - 1/n,
      positive for n > 4.
    - classical_refined, 5: log(e^(2 sqrt n) / (2 pi n^2)) has derivative
      1/sqrt(n) - 2/n, positive for n > 4.
    """

    direction: str  # "upper" | "lower" | "asymptotic"
    applies: Callable  # (n, table) -> bool
    value: Callable  # (n, table) -> int | Fraction | HighPrecisionReal
    # (n, table) -> iv enclosure the verdict is certified against; None when
    # the value is exact and compared directly
    enclosure: Callable | None = None
    # (n, table) -> the quantity the bound is claimed for, when it is not p(n)
    bounded: Callable | None = None
    increasing_from: int | None = None

    def __post_init__(self):
        if (self.enclosure is None) != (self.increasing_from is None):
            raise TypeError("an enclosure and its increasing_from come together")


def _classical(n: int, table: CountTable) -> bool:
    return n >= 1 and has_all_multiplicities(table.mults) and table.parts == ALL_PARTS


def _can_refine(n: int, parts: IntegerSetSpec) -> bool:
    if gcd_of_set(parts) != 1:
        return False
    try:
        j_of_n(n, parts)
    except ValueError:  # finite set exhausted before j * a_j reached n
        return False
    return True


BOUND_REGISTRY: dict[str, _Bound] = {
    "product_upper": _Bound(
        "upper",
        lambda n, t: True,
        lambda n, t: product_upper_column(t.upto, t.parts, t.mults)[n],
    ),
    "monotone_lower": _Bound(
        "lower",
        lambda n, t: 1 <= n < t.nondecreasing_prefix,
        lambda n, t: monotone_lower_bound(n, t.parts, t.mults),
    ),
    "schur": _Bound(
        "asymptotic",
        lambda n, t: t.finite_coprime is not None,
        lambda n, t: schur_asymptotic(n, t.finite_coprime),
    ),
    "hrr": _Bound(
        "asymptotic",
        _classical,
        lambda n, t: hrr_leading_term(n),
    ),
    "debruijn_upper": _Bound(
        "upper",
        lambda n, t: n >= 2 and n % 2 == 0 and has_all_multiplicities(t.mults)
        and t.parts == Powers(2),
        lambda n, t: _hp(lambda: mpmath.exp(debruijn_upper_bound(n // 2).value)),
        enclosure=lambda n, t: iv.exp(debruijn_log_term(iv, n // 2)),
        increasing_from=2,
    ),
    "harmonic_chain": _Bound(
        "upper",
        lambda n, t: n >= 1 and has_all_multiplicities(t.mults),
        lambda n, t: harmonic_chain_bound(n, t.parts, h=harmonic_numbers(t.upto)[n]),
        # n^A(n) is exact, so it is divided out and only e^(H_n) is enclosed
        enclosure=lambda n, t: exp_harmonic_term(iv, harmonic_numbers(t.upto)[n]),
        bounded=lambda n, t: Fraction(t.values[n], n ** t.parts.count_leq(n)),
        increasing_from=1,
    ),
    "sqrt_lower": _Bound(
        "lower",
        _classical,
        lambda n, t: classical_sqrt_lower(n),
        enclosure=lambda n, t: sqrt_lower_term(iv, n),
        increasing_from=5,
    ),
    "classical_refined": _Bound(
        "lower",
        _classical,
        lambda n, t: classical_refined_comparison(n),
        enclosure=lambda n, t: classical_refined_term(iv, n),
        increasing_from=5,
    ),
    "padberg": _Bound(
        "lower",
        lambda n, t: t.finite_coprime is not None,
        lambda n, t: padberg_lower(n, t.finite_coprime),
        bounded=lambda n, t: t.prefix_sums[n],  # the cumulative count
    ),
    "eq10": _Bound(
        "lower",
        lambda n, t: t.finite_coprime is not None and t.record_flags[n],
        lambda n, t: schur_style_point_lower(n, t.finite_coprime),
    ),
    "refined": _Bound(
        "lower",
        lambda n, t: n >= 1 and has_all_multiplicities(t.mults) and _can_refine(n, t.parts),
        lambda n, t: refined_lower_bound(n, t.parts),
    ),
    "slow_growth": _Bound(
        "asymptotic",
        lambda n, t: n >= 16,
        lambda n, t: slow_growth_closed_form(n),
    ),
}
BOUND_IDS = tuple(sorted(BOUND_REGISTRY))


def value_column(bound_id: str, table: CountTable) -> list:
    """The value of a registry bound at every n of table, None where it
    does not apply; built on first use and kept on the table."""
    key = ("value", bound_id)
    columns = table.bound_columns
    if key not in columns:
        b = BOUND_REGISTRY[bound_id]
        columns[key] = [
            b.value(n, table) if b.applies(n, table) else None
            for n in range(table.upto + 1)
        ]
    return columns[key]


def verdict_column(bound_id: str, table: CountTable) -> list[bool | None]:
    """The verdict of a registry bound at every n of table, None where it
    does not apply and for asymptotic reference values: an exact value is
    compared directly, an enclosed term is certified by blocks from the
    bound's increasing_from on and pointwise below it.  Built on first use
    and kept on the table."""
    key = ("verdict", bound_id)
    columns = table.bound_columns
    if key in columns:
        return columns[key]
    b = BOUND_REGISTRY[bound_id]
    column: list = [None] * (table.upto + 1)
    upper = b.direction == "upper"
    bounded = b.bounded or (lambda n, t: t.values[n])
    if b.enclosure is not None:
        ns = [n for n in range(table.upto + 1) if b.applies(n, table)]
        exact = [bounded(n, table) for n in ns]
        certify = certified_leq if upper else certified_geq
        start = bisect_left(ns, b.increasing_from)
        verdicts = [
            certify(e, lambda n=n: b.enclosure(n, table))
            for n, e in zip(ns[:start], exact[:start])
        ]
        verdicts += certify_increasing(
            ns[start:], exact[start:], lambda n: b.enclosure(n, table), upper
        )
        for n, ok in zip(ns, verdicts):
            column[n] = ok
    elif b.direction != "asymptotic":
        for n, v in enumerate(value_column(bound_id, table)):
            if v is not None:
                exact = bounded(n, table)
                column[n] = exact <= v if upper else exact >= v
    columns[key] = column
    return column


def bound_report(
    table: CountTable, n: int, bound_ids: list[str] | None = None
) -> BoundReport:
    """The requested bounds at one n against the exact count, read from
    each bound's value and verdict columns."""
    entries = []
    for bid in BOUND_IDS if bound_ids is None else bound_ids:
        if bid not in BOUND_REGISTRY:
            raise ValueError(f"unknown bound id {bid!r}")
        direction = BOUND_REGISTRY[bid].direction
        value = value_column(bid, table)[n]
        if value is None:
            entries.append(BoundEntry(bid, direction, False))
        else:
            verdict = verdict_column(bid, table)[n]
            entries.append(BoundEntry(bid, direction, True, value, verdict))
    return BoundReport(n, table.values[n], tuple(entries))
