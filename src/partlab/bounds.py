"""Evaluators for the growth bounds on p(n; S, M), and rigorous comparison
of exact counts against them.

A bound value is a plain number, of one of two families kept strictly
apart:

* polynomial / factorial bounds are exact (int or Fraction), so
  inequality checks are plain integer arithmetic;
* transcendental bounds are written once each, as a formula over an
  mpmath context: a registry bound's _Bound.value(ctx, n, table), built
  from terms such as debruijn_log_term and sqrt_lower_term.  Under mp the
  formula gives the displayed mpmath.mpf, at DEFAULT_DIGITS; under iv it
  gives an outward-rounded enclosure, and a verdict is claimed only when
  the exact side clears the whole enclosure, so it would survive any
  amount of extra precision.  When an enclosure is too wide to decide,
  precision is escalated, from DEFAULT_DIGITS up to MAX_DIGITS.  No
  function but that escalation step, interval_endpoints, takes a
  precision: a verdict does not depend on where it starts.

Directions are from the point of view of the exact count: an "upper"
bound claims exact <= value, a "lower" bound claims exact >= value.  The
exact side is p(n) unless a bound names another quantity (the cumulative
count for padberg).

Whether a registry bound holds is decided in one place, per table.  Each
bound has two columns over the n of a table, built on first use and kept
on the table (CountTable.bound_columns, keyed by (kind, bound id)), so
they belong to its values and not to (parts, mults):

* value_column: _Bound.value under mp at every n the bound applies to,
  None elsewhere;
* verdict_column: the verdict at every applicable n, None elsewhere and
  for asymptotic reference values.  An exact value is compared with the
  exact side directly.  A transcendental value is certified under iv,
  pointwise below its _Bound.increasing_from and by blocks from there on
  (certify_increasing), where it never decreases.  Either way each
  verdict is the pointwise one.

bound_report is a lookup into the two columns, and the verification
suites scan the same columns over their ranges of n.  The table-wide
facts the bounds need are computed once per table too, never again per n:
prefix sums, record flags, the nondecreasing prefix and the finite coprime
part set live on CountTable; the product ceilings (product_ceilings) and
the prefix-extension floors (refined_floors) are kept in
CountTable.bound_columns beside the columns that read them.  H_0..H_N come
from harmonic_numbers(N), cached on N alone, because many tables share one
N.  Thresholds are integers throughout: set elements are integers, so
M(n/a) = M(n // a).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import mpmath
from mpmath import iv, mp

from .arith import gcd_of_set
from .counting import CountTable
from .setspec import ALL_PARTS, NAT_MULTS, Finite, IntegerSetSpec, Powers

# The working precision is fixed, not an option.  Values are shown at 12
# digits (cli.DISPLAY_DIGITS), which 50 covers with room to spare, and a
# verdict starts at 50 and escalates by itself, up to MAX_DIGITS, until the
# enclosure decides it; a starting precision changes neither.
DEFAULT_DIGITS = 50
MAX_DIGITS = 3200


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


# ---------------------------------------------------------------------------
# Exact rational bounds

def _product_column(upto: int, parts: IntegerSetSpec, mults: IntegerSetSpec) -> list[int]:
    """prod over parts a of M(n // a) for n = 0..upto, in one pass: the
    product ceiling of eq. (4), truncated where a factor is 1.

    Elements are integers, so M(n/a) = M(n // a).  The factor of part a
    grows only at n = m * a with m a positive multiplicity, from k to k + 1
    when m is the k-th smallest one; every other factor is unchanged from
    n - 1.  So each n costs one exact multiply and divide by the factors
    that grow there, and a part past upto // (least positive m) never
    contributes.
    """
    num = [1] * (upto + 1)
    den = [1] * (upto + 1)
    positive = [m for m in mults.elements_upto(upto) if m > 0]
    for a in parts.elements_upto(upto // positive[0]) if positive else ():
        for k, m in enumerate(positive, start=1):
            if m * a > upto:
                break
            num[m * a] *= k + 1
            den[m * a] *= k
    column = [1]
    for n in range(1, upto + 1):
        column.append(column[-1] * num[n] // den[n])
    return column


def product_ceilings(table: CountTable) -> list[int]:
    """The product ceiling of eq. (4) at every n of table, built on first
    use and kept on the table."""
    columns = table.bound_columns
    key = ("fact", "product")
    if key not in columns:
        columns[key] = _product_column(table.upto, table.parts, table.mults)
    return columns[key]


class ExistenceWitness(NamedTuple):
    r: int
    witness: int
    threshold: Fraction


def check_existence_lower_bound(n: int, table: CountTable) -> ExistenceWitness | None:
    """Smallest r <= n^2 with p(r) >= prod M(n/a_i) / (n^2 + 1), read from a
    table of the pair.

    The search reads the table up to n^2 or to its end, whichever comes
    first, so any table that reaches the witness gives the same
    ExistenceWitness.  A table that ends before n^2 with no witness on it
    is too short to decide, and the result is None: a longer table of the
    pair decides.

    Such r always exists: the multiplicity assignments bounded by n/a_i
    produce prod M(n/a_i) partitions of integers <= n^2, so some value
    <= n^2 is hit at least the average number of times.  A witness missing
    from a table that reaches n^2 is therefore a counting bug, reported as
    LookupError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # a column to n, not the table's: the search asks only for its last entry
    product = _product_column(n, table.parts, table.mults)[n]
    for r in range(min(n * n, table.upto) + 1):
        if table.values[r] * (n * n + 1) >= product:
            return ExistenceWitness(r, table.values[r], Fraction(product, n * n + 1))
    if table.upto < n * n:
        return None
    raise LookupError(f"no witness r <= {n * n}; counting is inconsistent")


def schur_asymptotic(n: int, parts: Finite) -> Fraction:
    """n^(k-1) / ((k-1)! a_1 ... a_k), the polynomial growth law for finite
    coprime part sets."""
    k = len(parts.elements)
    return Fraction(n ** (k - 1), math.factorial(k - 1) * math.prod(parts.elements))


def padberg_lower(n: int, parts: Finite) -> Fraction:
    """(n+1)^k / (k! a_1 ... a_k), a lower bound for the cumulative count r'(n)."""
    k = len(parts.elements)
    return Fraction((n + 1) ** k, math.factorial(k) * math.prod(parts.elements))


def schur_style_point_lower(n: int, parts: Finite) -> Fraction:
    """(n+1)^(k-1) / (k! a_1 ... a_k); valid at record indices of p(.; A)."""
    k = len(parts.elements)
    return Fraction((n + 1) ** (k - 1), math.factorial(k) * math.prod(parts.elements))


def refined_floors(table: CountTable) -> list[Fraction | None]:
    """The prefix-extension floor (n+1)^(j-1) / (j! a_1 ... a_j) at every n
    of table, where j = j(n) is the least j >= 1 with j * a_j >= n and a_j
    the j-th smallest part; None at n = 0, where no such j exists (a finite
    part set runs out) and everywhere when gcd(parts) != 1.  j(n) never
    decreases, so one walk over the parts carries the denominator
    prod i * a_i; built on first use and kept on the table."""
    key = ("fact", "refined")
    columns = table.bound_columns
    if key in columns:
        return columns[key]
    floors: list = [None] * (table.upto + 1)
    if gcd_of_set(table.parts) == 1:
        n, den = 1, 1
        for j, a in enumerate(table.parts.iter_elements(), start=1):
            den *= j * a  # j! a_1 ... a_j
            while n <= min(j * a, table.upto):  # the n with j(n) = j
                floors[n] = Fraction((n + 1) ** (j - 1), den)
                n += 1
            if n > table.upto:
                break
    columns[key] = floors
    return floors


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


def hrr_term(ctx, n: int):
    """(1/(4 n sqrt(3))) exp(pi sqrt(2n/3)), the classical leading term."""
    return ctx.exp(ctx.pi * ctx.sqrt(ctx.mpf(2 * n) / 3)) / (4 * n * ctx.sqrt(3))


def slow_growth_term(ctx, n: int):
    """(lg n) (lg lg n)^(lg lg n) with base-2 logs.  log(x, 2) and power
    keep the exact points exact: at n = 2^16 the value is 4096 exactly."""
    lg_n = ctx.log(n, 2)
    lg_lg = ctx.log(lg_n, 2)
    return lg_n * ctx.power(lg_lg, lg_lg)


def debruijn_leading_term(ctx, n: int):
    """(1/(2 log 2)) (log(n / log n))^2: leading log-asymptotic of binary
    partitions of 2n, for n >= 3 (where log log n > 0)."""
    return ctx.log(n / ctx.log(n)) ** 2 / (2 * ctx.log(2))


# ---------------------------------------------------------------------------
# Per-n bound report

class BoundEntry(NamedTuple):
    bound_id: str
    direction: str  # "upper" | "lower" | "asymptotic"
    applicable: bool
    value: object | None = None  # int | Fraction | mpmath.mpf
    satisfied: bool | None = None  # None for asymptotic reference values


class _Bound(NamedTuple):
    """One registry bound.

    value(ctx, n, table) is the bound's one formula.  An exact value (int or
    Fraction) ignores ctx.  A transcendental value is written over ctx: mp
    gives the displayed value, iv the enclosure its verdict is certified
    against.  A transcendental upper or lower bound gives increasing_from,
    the least n from which its value never decreases over the n the bound
    applies to, so that verdict_column may certify it by blocks.  Proof
    sketches:

    - debruijn_upper, 2: log(2m+1) and log2(2m) are positive and increasing
      in m = n // 2 for m >= 1, so their product and its exp increase.
    - harmonic_chain, 1: n^A(n) and e^(H_n) are positive and never decrease.
    - sqrt_lower, 5: log(e^sqrt(n) / n) has derivative 1/(2 sqrt n) - 1/n,
      positive for n > 4.
    - classical_refined, 5: log(e^(2 sqrt n) / (2 pi n^2)) has derivative
      1/sqrt(n) - 2/n, positive for n > 4.
    """

    direction: str  # "upper" | "lower" | "asymptotic"
    applies: Callable  # (n, table) -> bool
    value: Callable  # (ctx, n, table) -> int | Fraction | ctx.mpf
    # (n, table) -> the quantity the bound is claimed for: p(n) unless named
    bounded: Callable = lambda n, t: t.values[n]
    increasing_from: int | None = None


# debruijn_upper's part set, built once: its test runs at every n
_BINARY = Powers(2)


def _classical(n: int, table: CountTable) -> bool:
    return n >= 1 and table.mults == NAT_MULTS and table.parts == ALL_PARTS


BOUND_REGISTRY: dict[str, _Bound] = {
    "product_upper": _Bound(
        "upper",
        lambda n, t: True,
        lambda ctx, n, t: product_ceilings(t)[n],
    ),
    "monotone_lower": _Bound(
        "lower",
        lambda n, t: 1 <= n < t.nondecreasing_prefix,
        # mu * a <= sqrt(n) iff mu * a <= isqrt(n) for integers
        lambda ctx, n, t: Fraction(product_ceilings(t)[math.isqrt(n)], n + 1),
    ),
    "schur": _Bound(
        "asymptotic",
        lambda n, t: t.finite_coprime is not None,
        lambda ctx, n, t: schur_asymptotic(n, t.finite_coprime),
    ),
    "hrr": _Bound(
        "asymptotic",
        _classical,
        lambda ctx, n, t: hrr_term(ctx, n),
    ),
    "debruijn_upper": _Bound(
        "upper",
        lambda n, t: n >= 2 and n % 2 == 0 and t.mults == NAT_MULTS
        and t.parts == _BINARY,
        lambda ctx, n, t: ctx.exp(debruijn_log_term(ctx, n // 2)),
        increasing_from=2,
    ),
    "harmonic_chain": _Bound(
        "upper",
        lambda n, t: n >= 1 and t.mults == NAT_MULTS,
        lambda ctx, n, t: ctx.mpf(n) ** t.parts.count_leq(n)
        * exp_harmonic_term(ctx, harmonic_numbers(t.upto)[n]),
        increasing_from=1,
    ),
    "sqrt_lower": _Bound(
        "lower",
        _classical,
        lambda ctx, n, t: sqrt_lower_term(ctx, n),
        increasing_from=5,
    ),
    "classical_refined": _Bound(
        "lower",
        _classical,
        lambda ctx, n, t: classical_refined_term(ctx, n),
        increasing_from=5,
    ),
    "padberg": _Bound(
        "lower",
        lambda n, t: t.finite_coprime is not None,
        lambda ctx, n, t: padberg_lower(n, t.finite_coprime),
        bounded=lambda n, t: t.prefix_sums[n],  # the cumulative count
    ),
    "eq10": _Bound(
        "lower",
        lambda n, t: t.finite_coprime is not None and t.record_flags[n],
        lambda ctx, n, t: schur_style_point_lower(n, t.finite_coprime),
    ),
    "refined": _Bound(
        "lower",
        lambda n, t: t.mults == NAT_MULTS and refined_floors(t)[n] is not None,
        lambda ctx, n, t: refined_floors(t)[n],
    ),
    "slow_growth": _Bound(
        "asymptotic",
        lambda n, t: n >= 16,
        lambda ctx, n, t: slow_growth_term(ctx, n),
    ),
}
BOUND_IDS = tuple(sorted(BOUND_REGISTRY))


def value_column(bound_id: str, table: CountTable) -> list:
    """The value of a registry bound at every n of table, None where it
    does not apply, transcendental values as mpf under mp at DEFAULT_DIGITS;
    built on first use and kept on the table."""
    key = ("value", bound_id)
    columns = table.bound_columns
    if key not in columns:
        b = BOUND_REGISTRY[bound_id]
        with mp.workdps(DEFAULT_DIGITS):
            columns[key] = [
                b.value(mp, n, table) if b.applies(n, table) else None
                for n in range(table.upto + 1)
            ]
    return columns[key]


def verdict_column(bound_id: str, table: CountTable) -> list[bool | None]:
    """The verdict of a registry bound at every n of table, as the module
    docstring sets out; built on first use and kept on the table.  A
    transcendental value without increasing_from raises TypeError rather
    than be compared at its working precision."""
    key = ("verdict", bound_id)
    columns = table.bound_columns
    if key in columns:
        return columns[key]
    b = BOUND_REGISTRY[bound_id]
    column: list = [None] * (table.upto + 1)
    upper = b.direction == "upper"
    if b.increasing_from is not None:
        ns = [n for n in range(table.upto + 1) if b.applies(n, table)]
        exact = [b.bounded(n, table) for n in ns]
        certify = certified_leq if upper else certified_geq
        start = bisect_left(ns, b.increasing_from)
        verdicts = [
            certify(e, lambda n=n: b.value(iv, n, table))
            for n, e in zip(ns[:start], exact[:start])
        ]
        verdicts += certify_increasing(
            ns[start:], exact[start:], lambda n: b.value(iv, n, table), upper
        )
        for n, ok in zip(ns, verdicts):
            column[n] = ok
    elif b.direction != "asymptotic":
        for n, v in enumerate(value_column(bound_id, table)):
            if isinstance(v, mpmath.mpf):
                raise TypeError(
                    f"bound {bound_id!r} has a transcendental value but no increasing_from"
                )
            if v is not None:
                exact = b.bounded(n, table)
                column[n] = exact <= v if upper else exact >= v
    columns[key] = column
    return column


def bound_report(
    table: CountTable, n: int, bound_ids: list[str] | None = None
) -> tuple[BoundEntry, ...]:
    """The requested bounds at one n against the exact count, read from
    each bound's value and verdict columns."""
    entries = []
    for bid in BOUND_IDS if bound_ids is None else bound_ids:
        if bid not in BOUND_REGISTRY:
            raise ValueError(f"unknown bound id {bid!r}")
        value = value_column(bid, table)[n]
        verdict = None if value is None else verdict_column(bid, table)[n]
        entries.append(
            BoundEntry(bid, BOUND_REGISTRY[bid].direction, value is not None, value, verdict)
        )
    return tuple(entries)
