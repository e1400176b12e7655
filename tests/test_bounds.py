"""Bound evaluators: exact rational values, high-precision terms with
certified interval comparisons, and the per-n report."""

import inspect
import math
from fractions import Fraction
from functools import cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

from partlab import bounds
from partlab.arith import gcd_of_set
from partlab.bounds import (
    BOUND_IDS,
    BOUND_REGISTRY,
    DEFAULT_DIGITS,
    BoundEntry,
    ExistenceWitness,
    PrecisionError,
    _Bound,
    bound_report,
    certified_geq,
    certified_leq,
    certify_increasing,
    check_existence_lower_bound,
    debruijn_leading_term,
    harmonic_numbers,
    hrr_term,
    interval_endpoints,
    padberg_lower,
    product_ceilings,
    refined_floors,
    schur_asymptotic,
    schur_style_point_lower,
    slow_growth_term,
    sqrt_lower_term,
    value_column,
    verdict_column,
)
from partlab.counting import CountTable, count_table
from partlab.setspec import (
    ALL_PARTS,
    NAT_MULTS,
    ArithmeticProgression,
    DoublyExponential,
    Finite,
    Powers,
    WithZero,
    parse_set_spec,
)

DEXP_PARTS = DoublyExponential(2)
DEXP_MULTS = WithZero(DoublyExponential(2))


def _formula(bid, n, table):
    """Registry bound bid's formula at n, whether or not it applies there."""
    with mp.workdps(DEFAULT_DIGITS):
        return BOUND_REGISTRY[bid].value(mp, n, table)


class TestProductUpper:
    def test_small_values(self):
        assert product_ceilings(count_table(4, ALL_PARTS))[4] == 60
        assert product_ceilings(count_table(0, ALL_PARTS)) == [1]
        assert product_ceilings(count_table(8, DEXP_PARTS, DEXP_MULTS))[8] == 6

    def test_dominates_count(self):
        for parts, mults, top in [
            (ALL_PARTS, NAT_MULTS, 60),
            (Finite((2, 3)), NAT_MULTS, 200),
            (DEXP_PARTS, DEXP_MULTS, 300),
            (Powers(2), WithZero(Powers(2)), 300),
        ]:
            table = count_table(top, parts, mults)
            for n, ceiling in enumerate(product_ceilings(table)):
                assert table.values[n] <= ceiling, n

    @pytest.mark.parametrize("parts", [ALL_PARTS, Finite((2, 3)), DEXP_PARTS])
    def test_zero_only_multiplicities(self, parts):
        # no positive multiplicity: every factor M(n // a) is 1
        table = count_table(5, parts, Finite((0,)))
        assert product_ceilings(table) == [1] * 6
        assert value_column("product_upper", table) == [1] * 6
        assert [_formula("monotone_lower", n, table) for n in range(1, 6)] == [
            Fraction(1, n + 1) for n in range(1, 6)
        ]


class TestExistenceWitness:
    def test_classical_n4(self):
        w = check_existence_lower_bound(4, count_table(16, ALL_PARTS))
        assert w == ExistenceWitness(4, 5, Fraction(60, 17))

    def test_trivial_cases(self):
        assert check_existence_lower_bound(1, count_table(1, ALL_PARTS)).r == 0
        w = check_existence_lower_bound(3, count_table(9, Finite((2, 3))))
        assert (w.r, w.threshold) == (0, Fraction(2, 5))

    def test_smallest_r(self):
        # every earlier index sits strictly below the threshold, which is
        # the product ceiling at n over n^2 + 1
        for n in (4, 6, 9):
            table = count_table(n * n, ALL_PARTS)
            w = check_existence_lower_bound(n, table)
            assert w.threshold == Fraction(product_ceilings(table)[n], n * n + 1)
            assert all(table.values[r] < w.threshold for r in range(w.r))
            assert w.witness >= w.threshold

    def test_reuses_table(self):
        # a table past n^2 is read as it is; the search stops at n^2
        table = count_table(100, ALL_PARTS)
        assert check_existence_lower_bound(4, table) == check_existence_lower_bound(
            4, count_table(16, ALL_PARTS)
        )

    def test_short_table_returns_none(self):
        # a table short of n^2 gives the witness if it reaches it, and None
        # (too short to decide) if it ends first; a table that reaches n^2
        # without a witness is a counting bug
        full = check_existence_lower_bound(4, count_table(16, ALL_PARTS))
        assert check_existence_lower_bound(4, count_table(15, ALL_PARTS)) == full
        assert check_existence_lower_bound(4, count_table(4, ALL_PARTS)) == full
        assert check_existence_lower_bound(4, count_table(3, ALL_PARTS)) is None
        zeros = lambda upto: CountTable(ALL_PARTS, NAT_MULTS, (0,) * (upto + 1))
        assert check_existence_lower_bound(4, zeros(15)) is None
        with pytest.raises(LookupError, match=r"^no witness r <= 16; counting is inconsistent$"):
            check_existence_lower_bound(4, zeros(16))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_existence_lower_bound(0, count_table(1, ALL_PARTS))


class TestMonotoneLower:
    def test_values(self):
        column = value_column("monotone_lower", count_table(100, ALL_PARTS))
        assert column[100] == Fraction(76032, 101)
        assert column[1] == 1
        # p(1) = 0 for dexp:2, so the bound does not apply; its formula still reads
        assert _formula("monotone_lower", 16, count_table(16, DEXP_PARTS, DEXP_MULTS)) == (
            Fraction(2, 17)
        )

    def test_holds_for_nondecreasing_table(self):
        table = count_table(400, ALL_PARTS)
        assert table.nondecreasing_prefix == 401
        for n, floor in enumerate(value_column("monotone_lower", table)[1:], start=1):
            assert table.values[n] >= floor

    def test_exact_sqrt_threshold(self):
        # isqrt keeps mu*a <= sqrt(n) exact at perfect squares
        table = count_table(16, Finite((4,)))
        assert _formula("monotone_lower", 15, table) == Fraction(1, 16)
        assert _formula("monotone_lower", 16, table) == Fraction(2, 17)


class TestPolynomialFamily:
    def test_schur_values(self):
        assert schur_asymptotic(1000, Finite((1, 2, 3))) == Fraction(
            10**6, 12
        )
        assert schur_asymptotic(77, Finite((1,))) == 1

    def test_padberg_values(self):
        assert padberg_lower(10, Finite((2, 3))) == Fraction(121, 12)
        assert padberg_lower(0, Finite((3, 5))) == Fraction(1, 30)

    def test_point_lower_value(self):
        assert schur_style_point_lower(10, Finite((2, 3))) == Fraction(
            11, 12
        )

    def test_point_lower_at_records(self):
        table = count_table(10, Finite((2, 3)))
        records = [n for n, r in enumerate(table.record_flags) if r]
        assert 10 in records and 7 not in records
        for n in records:
            assert table.values[n] >= schur_style_point_lower(n, table.parts)


class TestRefined:
    def test_j_of_n(self):
        # j(n) is the least j with j * a_j >= n: for pow:2, j * a_j runs
        # 1, 4, 12, 32, so j(5) = 3 and the floor is 6^2 / (1*1 * 2*2 * 3*4)
        assert refined_floors(count_table(40, Powers(2)))[5] == Fraction(36, 48)
        # finite:2,3 reaches j * a_j = 6 and then runs out
        floors = refined_floors(count_table(10, Finite((2, 3))))
        assert [n for n, f in enumerate(floors) if f is not None] == [1, 2, 3, 4, 5, 6]

    def test_values(self):
        column = value_column("refined", count_table(100, ALL_PARTS))
        assert column[100] == Fraction(101**9, math.factorial(10) ** 2)
        assert column[4] == Fraction(5, 4)
        assert column[1] == 1
        assert column[0] is None

    def test_requires_coprime(self):
        table = count_table(100, ArithmeticProgression(4, 6))
        assert refined_floors(table) == [None] * 101
        assert value_column("refined", table) == [None] * 101

    def test_improves_on_fixed_prefix(self):
        # at large n the adaptive prefix beats any fixed k-term prefix bound
        n = 2000
        fixed = schur_style_point_lower(n, Finite((1, 2, 3)))
        assert refined_floors(count_table(n, ALL_PARTS))[n] > fixed

    @pytest.mark.parametrize("upto", [50, 400])
    def test_columns_walk_the_parts_a_constant_number_of_times(self, monkeypatch, upto):
        # the product ceilings and the j walk are table-wide facts, so the
        # monotone_lower and refined columns do not walk all or nat per n
        walks = []
        walk = ArithmeticProgression.iter_elements
        table = count_table(upto, ALL_PARTS)
        monkeypatch.setattr(ArithmeticProgression, "iter_elements", lambda s: walks.append(s) or walk(s))
        assert value_column("monotone_lower", table)[upto] is not None
        assert value_column("refined", table)[upto] is not None
        assert 0 < len(walks) <= 3


def _harmonic(n):
    """H_n by its own sum of 1/j, apart from harmonic_numbers' running sum."""
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def _registry_value(bid, n, parts):
    """The displayed value of registry bound bid at n, for parts with all
    multiplicities."""
    return value_column(bid, count_table(n, parts))[n]


class TestHarmonic:
    def test_harmonic_number(self):
        assert harmonic_numbers(4) == (0, 1, Fraction(3, 2), Fraction(11, 6), Fraction(25, 12))

    def test_harmonic_numbers_running_sum(self):
        assert harmonic_numbers(40) == tuple(_harmonic(n) for n in range(41))
        assert harmonic_numbers(0) == (0,)

    def test_chain_value(self):
        # 4^4 e^(25/12)
        assert abs(_registry_value("harmonic_chain", 4, ALL_PARTS) - 2055.9859) < 1e-3

    def test_chain_is_upper_bound(self):
        table = count_table(300, Powers(2))
        values = value_column("harmonic_chain", table)
        for n in (16, 100, 300):
            assert table.values[n] <= values[n]


def _at_default_digits(term, n):
    with mp.workdps(DEFAULT_DIGITS):
        return term(mp, n)


class TestTranscendentalTerms:
    def test_hrr_values(self):
        assert abs(_at_default_digits(hrr_term, 100) / 199280893.3497 - 1) < 1e-10
        assert abs(_at_default_digits(hrr_term, 1) - 1.876670423) < 1e-8

    def test_hrr_ratio_near_one(self):
        assert abs(_at_default_digits(hrr_term, 100) / 190569292 - 1.0457136) < 1e-6

    def test_debruijn_leading(self):
        assert abs(_at_default_digits(debruijn_leading_term, 2**10) - 18.000519) < 1e-5

    def test_debruijn_upper_value(self):
        # e^(log(17) * log2(16)) = 17^4 at n = 16
        assert abs(_registry_value("debruijn_upper", 16, Powers(2)) - 17**4) < 1e-40

    def test_debruijn_upper_column_builds_no_part_set(self, monkeypatch):
        # applies is asked at every n; it compares with one module constant
        table = count_table(512, Powers(2))
        built = []
        init = Powers.__init__
        monkeypatch.setattr(Powers, "__init__", lambda self, base: built.append(base) or init(self, base))
        verdicts = verdict_column("debruijn_upper", table)
        assert verdicts[2:9] == [True, None] * 3 + [True]
        assert built == []

    def test_sqrt_and_refined_values(self):
        assert abs(_registry_value("sqrt_lower", 100, ALL_PARTS) - 220.26466) < 1e-4
        assert abs(_registry_value("classical_refined", 100, ALL_PARTS) - 7721.6439) < 1e-3

    def test_slow_growth_exact_points(self):
        # powers of 2 with power-of-2 exponents give integer values
        assert _at_default_digits(slow_growth_term, 2**16) == 4096
        assert _at_default_digits(slow_growth_term, 2**256) == 256 * 8**8


def test_only_the_escalation_step_takes_a_precision():
    # a certified verdict does not depend on its starting precision, so
    # values and verdicts are computed at DEFAULT_DIGITS and only the step
    # the escalation repeats is handed one
    public = [
        fn
        for name, fn in vars(bounds).items()
        if not name.startswith("_") and callable(fn) and not inspect.isclass(fn)
        and getattr(fn, "__module__", None) == bounds.__name__
    ]
    assert len(public) > 20
    takes_digits = {
        fn.__name__ for fn in public if "digits" in inspect.signature(fn).parameters
    }
    assert takes_digits == {"interval_endpoints"}


def _within_enclosure(value, builder):
    """value (an mpf) lies in the enclosure builder() gives at
    DEFAULT_DIGITS, widened by a relative 10^-(DEFAULT_DIGITS - 5)."""
    man, exp = value.man_exp
    v = Fraction(man) * Fraction(2) ** exp
    lo, hi = interval_endpoints(builder, DEFAULT_DIGITS)
    slack = Fraction(1, 10 ** (DEFAULT_DIGITS - 5))
    return lo - abs(lo) * slack <= v <= hi + abs(hi) * slack


# the part set under which each transcendental registry bound applies
_TRANSCENDENTAL_PARTS = {
    "classical_refined": ALL_PARTS,
    "debruijn_upper": Powers(2),
    "harmonic_chain": Powers(2),
    "sqrt_lower": ALL_PARTS,
}
_FORMULA_LIMIT = 400

def _chain_over_powers_of_2(n):
    """n^A(n) e^(H_n) for parts pow:2, where A(n) is the bit length of n."""
    h = _harmonic(n)
    return mpmath.mpf(n) ** n.bit_length() * mpmath.exp(mpmath.mpf(h.numerator) / h.denominator)


# each transcendental registry bound written out again under mp, apart
# from the registry's formula; debruijn_upper as (n+1)^(log2 n)
_EVALUATORS = {
    "classical_refined": lambda n: mpmath.exp(2 * mpmath.sqrt(n)) / (2 * mpmath.pi * n**2),
    "debruijn_upper": lambda n: mpmath.power(n + 1, mpmath.log(n, 2)),
    "harmonic_chain": _chain_over_powers_of_2,
    "sqrt_lower": lambda n: mpmath.exp(mpmath.sqrt(n)) / n,
}


@cache
def _formula_table(parts):
    return count_table(_FORMULA_LIMIT, parts)


class TestOneFormula:
    """A transcendental bound's displayed value (mp) and the enclosure its
    verdict is certified against (iv) come from one formula, so they agree
    to the working precision."""

    def test_transcendental_bounds_listed(self):
        # exactly the bounds with verdicts and transcendental values
        # declare the range that block certification needs
        tables = [_formula_table(ALL_PARTS), _formula_table(Powers(2))]
        transcendental = {
            bid for bid, b in BOUND_REGISTRY.items()
            if b.direction != "asymptotic" and any(
                isinstance(v, mpmath.mpf) for t in tables for v in value_column(bid, t)
            )
        }
        declared = {bid for bid, b in BOUND_REGISTRY.items() if b.increasing_from is not None}
        assert transcendental == declared == set(_TRANSCENDENTAL_PARTS)

    @pytest.mark.parametrize("bid", sorted(_TRANSCENDENTAL_PARTS))
    @settings(max_examples=25, deadline=None)
    @given(half_n=st.integers(1, _FORMULA_LIMIT // 2))
    def test_value_inside_enclosure(self, bid, half_n):
        n = 2 * half_n if bid == "debruijn_upper" else half_n
        table = _formula_table(_TRANSCENDENTAL_PARTS[bid])
        bound = BOUND_REGISTRY[bid]
        assert bound.applies(n, table)
        shown = value_column(bid, table)[n]
        assert _within_enclosure(shown, lambda: bound.value(iv, n, table))

    @pytest.mark.parametrize("bid", sorted(_EVALUATORS))
    @settings(max_examples=25, deadline=None)
    @given(half_n=st.integers(1, _FORMULA_LIMIT // 2))
    def test_evaluator_inside_enclosure(self, bid, half_n):
        n = 2 * half_n if bid == "debruijn_upper" else half_n
        table = _formula_table(_TRANSCENDENTAL_PARTS[bid])
        with mpmath.workdps(DEFAULT_DIGITS):
            shown = _EVALUATORS[bid](n)
        assert _within_enclosure(shown, lambda: BOUND_REGISTRY[bid].value(iv, n, table))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(16, 2**80))
    def test_slow_growth_inside_enclosure(self, n):
        value = _at_default_digits(slow_growth_term, n)
        assert _within_enclosure(value, lambda: slow_growth_term(iv, n))


class TestCertification:
    def test_interval_endpoints_bracket(self):
        lo, hi = interval_endpoints(lambda: iv.pi, 50)
        assert lo < Fraction(355, 113)  # pi < 355/113
        assert lo <= hi
        assert hi - lo < Fraction(1, 10**45)

    def test_leq_and_geq(self):
        assert certified_leq(3, lambda: iv.pi)
        assert not certified_leq(4, lambda: iv.pi)
        assert certified_geq(4, lambda: iv.pi)
        assert not certified_geq(3, lambda: iv.pi)

    def test_exact_dyadic_boundary(self):
        # 1/4 is exactly representable, so its interval is a point and
        # equality certifies in both directions
        builder = lambda: iv.mpf(1) / iv.mpf(4)
        assert certified_leq(Fraction(1, 4), builder)
        assert certified_geq(Fraction(1, 4), builder)

    def test_nonrepresentable_boundary_raises(self):
        # the binary interval for 1/3 straddles it at every precision, so
        # the comparison can never settle and must say so
        from partlab.bounds import PrecisionError

        with pytest.raises(PrecisionError):
            certified_leq(Fraction(1, 3), lambda: iv.mpf(1) / iv.mpf(3))

    def test_escalation_settles_tight_margin(self):
        # margin of 10^-60 needs more than the starting 50 digits
        target = Fraction(10**60 - 1, 3 * 10**60)
        builder = lambda: iv.mpf(1) / iv.mpf(3)
        assert certified_leq(target, builder)
        assert not certified_geq(target, builder)


# B(n) = 1000 sqrt(n), which increases
_SQRT_ENCLOSURE = lambda n: 1000 * iv.sqrt(iv.mpf(n))


def _near_sqrt(ns, offsets):
    """1000 sqrt(n) rounded down to 60 decimals, plus a whole offset: an
    offset of 0 sits below B(n) by less than 10^-60."""
    return [Fraction(math.isqrt(10**126 * n), 10**60) + off for n, off in zip(ns, offsets)]


def _pointwise(ns, exact, enclosure, upper):
    certify = certified_leq if upper else certified_geq
    return [certify(e, lambda n=n: enclosure(n)) for n, e in zip(ns, exact)]


class TestFamilyCertification:
    """certify_increasing settles blocks of n with one interval check each;
    its verdicts must be the pointwise ones."""

    @settings(max_examples=40, deadline=None)
    @given(
        offsets=st.lists(st.integers(-3, 3), min_size=1, max_size=120),
        first=st.integers(1, 10**6),
        upper=st.booleans(),
    )
    def test_matches_pointwise(self, offsets, first, upper):
        ns = list(range(first, first + len(offsets)))
        exact = _near_sqrt(ns, offsets)
        got = certify_increasing(ns, exact, _SQRT_ENCLOSURE, upper)
        assert got == _pointwise(ns, exact, _SQRT_ENCLOSURE, upper)

    @pytest.mark.parametrize("upper", [True, False])
    def test_tight_margins_split_and_escalate(self, monkeypatch, upper):
        calls = []

        def counted(builder, digits):
            calls.append(digits)
            return interval_endpoints(builder, digits)

        # B grows by about 0.5 per step here, so offsets of 3 let some
        # blocks settle at once; an offset of 0 is within 10^-60 of B, which
        # the starting precision cannot separate
        ns = list(range(10**6 + 1, 10**6 + 17))
        offsets = [-3] * 7 + [0] + [-3] * 6 + [3, -3]
        if not upper:
            offsets = [-off for off in offsets]
        exact = _near_sqrt(ns, offsets)
        monkeypatch.setattr("partlab.bounds.interval_endpoints", counted)
        got = certify_increasing(ns, exact, _SQRT_ENCLOSURE, upper)
        family = calls[:]
        calls.clear()
        assert got == _pointwise(ns, exact, _SQRT_ENCLOSURE, upper)
        # some block settled with one check, and some single n escalated
        assert family.count(DEFAULT_DIGITS) < len(ns) == calls.count(DEFAULT_DIGITS)
        assert max(family) > DEFAULT_DIGITS

    def test_wide_margin_settles_in_one_check(self, monkeypatch):
        calls = []

        def counted(builder, digits):
            calls.append(digits)
            return interval_endpoints(builder, digits)

        monkeypatch.setattr("partlab.bounds.interval_endpoints", counted)
        # on [1000, 2000], p(n) >= p(1000) ~ 2.4e31 while e^(sqrt n)/n stays
        # below 1.3e16, so the whole range is one block
        ns = list(range(1000, 2001))
        table = count_table(2000, ALL_PARTS)
        exact = [table.values[n] for n in ns]
        verdicts = certify_increasing(ns, exact, lambda n: sqrt_lower_term(iv, n), False)
        assert verdicts == [True] * len(ns)
        assert calls == [DEFAULT_DIGITS]

    def test_precision_error_is_the_pointwise_one(self):
        # one n whose comparison cannot settle at any precision
        ns = [1, 2, 3]
        exact = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 2)]
        enclosure = lambda n: iv.mpf(n) / 3
        with pytest.raises(PrecisionError):
            certify_increasing(ns, exact, enclosure, True)


_MONOTONE_LIMIT = 2000


@cache
def _monotone_points(bid):
    b = BOUND_REGISTRY[bid]
    table = count_table(_MONOTONE_LIMIT, _TRANSCENDENTAL_PARTS[bid])
    start = b.increasing_from
    return table, [n for n in range(start, _MONOTONE_LIMIT + 1) if b.applies(n, table)]


class TestMonotoneRanges:
    """Block certification rests on each declared range: from
    increasing_from on, the value under iv never decreases over the n the
    bound applies to."""

    def test_declared_ranges(self):
        declared = {
            bid: b.increasing_from
            for bid, b in BOUND_REGISTRY.items()
            if b.increasing_from is not None
        }
        assert declared == {
            "classical_refined": 5, "debruijn_upper": 2, "harmonic_chain": 1, "sqrt_lower": 5,
        }

    def test_transcendental_value_needs_a_declared_range(self, monkeypatch):
        # without increasing_from a verdict is an exact comparison, which a
        # transcendental value refuses instead of deciding unsoundly
        applies, value = (lambda n, t: n >= 1), (lambda ctx, n, t: ctx.sqrt(n))
        monkeypatch.setitem(BOUND_REGISTRY, "planted", _Bound("upper", applies, value))
        table = CountTable(ALL_PARTS, NAT_MULTS, count_table(10, ALL_PARTS).values)
        with pytest.raises(TypeError, match="'planted'"):
            verdict_column("planted", table)
        monkeypatch.setitem(
            BOUND_REGISTRY, "planted", _Bound("upper", applies, value, increasing_from=1)
        )
        assert verdict_column("planted", table)[1:] == [True] + [False] * 9  # p(1) = sqrt(1)

    @pytest.mark.parametrize("bid", sorted(_TRANSCENDENTAL_PARTS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_enclosures_increase(self, bid, data):
        table, points = _monotone_points(bid)
        i = data.draw(st.integers(0, len(points) - 2))
        n, m = points[i], data.draw(st.sampled_from(points[i + 1 :]))
        b = BOUND_REGISTRY[bid]
        _, hi_n = interval_endpoints(lambda: b.value(iv, n, table), 50)
        lo_m, _ = interval_endpoints(lambda: b.value(iv, m, table), 50)
        assert hi_n <= lo_m


class TestBoundReport:
    def test_ids_sorted_and_stable(self):
        assert BOUND_IDS == tuple(sorted(BOUND_REGISTRY))
        assert "product_upper" in BOUND_IDS and "slow_growth" in BOUND_IDS

    def test_unknown_id(self):
        table = count_table(10, ALL_PARTS)
        with pytest.raises(ValueError):
            bound_report(table, 5, ["nope"])

    def test_classical_report(self):
        table = count_table(100, ALL_PARTS)
        by_id = {e.bound_id: e for e in bound_report(table, 100)}
        assert by_id["product_upper"].satisfied is True
        assert by_id["monotone_lower"].satisfied is True
        assert by_id["refined"].satisfied is True
        assert by_id["sqrt_lower"].satisfied is True
        assert by_id["hrr"].satisfied is None  # asymptotic reference only
        assert by_id["debruijn_upper"].applicable is False
        assert by_id["padberg"].applicable is False  # infinite part set

    def test_binary_report(self):
        table = count_table(16, Powers(2))
        by_id = {
            e.bound_id: e for e in bound_report(table, 16, ["debruijn_upper", "harmonic_chain"])
        }
        assert by_id["debruijn_upper"].applicable is True
        assert by_id["debruijn_upper"].satisfied is True
        assert by_id["harmonic_chain"].satisfied is True
        (odd,) = bound_report(table, 15, ["debruijn_upper"])
        assert odd.applicable is False

    def test_eq10_only_at_records(self):
        table = count_table(10, Finite((2, 3)))
        assert bound_report(table, 10, ["eq10"])[0].applicable is True
        assert bound_report(table, 7, ["eq10"])[0].applicable is False

    def test_verdicts_follow_the_table_object(self):
        # a column is kept on the table it was built for, so a table with
        # the same pair but planted values gets its own verdicts
        real = count_table(300, ALL_PARTS)
        planted = CountTable(real.parts, real.mults, real.values[:200] + (1,) + real.values[201:])
        assert bound_report(real, 200, ["sqrt_lower"])[0].satisfied is True
        assert bound_report(planted, 200, ["sqrt_lower"])[0].satisfied is False
        assert bound_report(real, 200, ["sqrt_lower"])[0].satisfied is True

    def test_columns_are_built_once_per_table(self):
        table = count_table(50, Finite((2, 3)))
        for bid in BOUND_IDS:
            assert value_column(bid, table) is value_column(bid, table)
            assert verdict_column(bid, table) is verdict_column(bid, table)
        values, verdicts = value_column("eq10", table), verdict_column("eq10", table)
        assert [v is not None for v in values] == list(table.record_flags)
        assert [ok is not None for ok in verdicts] == list(table.record_flags)
        assert verdict_column("schur", table) == [None] * 51  # asymptotic: no verdicts

    def test_monotone_applicability_tracks_data(self):
        table = count_table(10, Finite((2, 3)))
        assert bound_report(table, 10, ["monotone_lower"])[0].applicable is False  # p dips


def _fraction_product(n, parts, mults):
    """The product ceiling with rational thresholds M(n/a) over every part
    a <= n, as first written; a factor where only 0 fits is 1."""
    return math.prod(mults.count_leq(Fraction(n, a)) for a in parts.elements_upto(n))


def _prefix_floor(n, parts):
    """(n+1)^(j-1) / (j! a_1 ... a_j) for the least j with j * a_j >= n, by
    its own walk over the parts; None when a finite set runs out first."""
    prefix = []
    for a in parts.iter_elements():
        prefix.append(a)
        if len(prefix) * a >= n:
            j = len(prefix)
            return Fraction((n + 1) ** (j - 1), math.factorial(j) * math.prod(prefix))
    return None


def _oracle_entry(bid, table, n):
    """The BoundEntry for one bound at one n, from per-n formulas that use
    nothing table-wide and no bounds helper but the certifiers: the
    rational-threshold product, a per-n walk for the prefix floor, a per-n
    sum for H_n, and sum, max and a nondecreasing scan over
    values[: n + 1]."""
    parts, mults = table.parts, table.mults
    values = table.values[: n + 1]
    exact = values[n]
    nat = mults == NAT_MULTS
    # a finite coprime part set with nat: k parts of product prod
    finite = nat and isinstance(parts, Finite) and math.gcd(*parts.elements) == 1
    k, prod = (len(parts.elements), math.prod(parts.elements)) if finite else (None, None)
    classical = n >= 1 and nat and parts == ALL_PARTS

    if bid == "product_upper":
        value = _fraction_product(n, parts, mults)
        return BoundEntry(bid, "upper", True, value, exact <= value)
    if bid == "monotone_lower":
        if n < 1 or any(b < a for a, b in zip(values, values[1:])):
            return BoundEntry(bid, "lower", False)
        value = Fraction(_fraction_product(math.isqrt(n), parts, mults), n + 1)
        return BoundEntry(bid, "lower", True, value, exact >= value)
    if bid == "schur":
        if not finite:
            return BoundEntry(bid, "asymptotic", False)
        value = Fraction(n ** (k - 1), math.factorial(k - 1) * prod)
        return BoundEntry(bid, "asymptotic", True, value)
    if bid == "hrr":
        if not classical:
            return BoundEntry(bid, "asymptotic", False)
        with mpmath.workdps(DEFAULT_DIGITS):
            value = mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(2 * n) / 3))
            value /= 4 * n * mpmath.sqrt(3)
        return BoundEntry(bid, "asymptotic", True, value)
    if bid == "debruijn_upper":
        if not (n >= 2 and n % 2 == 0 and nat and parts == Powers(2)):
            return BoundEntry(bid, "upper", False)
        with mpmath.workdps(DEFAULT_DIGITS):
            value = mpmath.exp(mpmath.log(n + 1) * mpmath.log(n) / mpmath.log(2))
        ok = certified_leq(
            exact,
            lambda: iv.exp(iv.log(iv.mpf(n + 1)) * iv.log(iv.mpf(n)) / iv.log(iv.mpf(2))),
        )
        return BoundEntry(bid, "upper", True, value, ok)
    if bid == "harmonic_chain":
        if not (n >= 1 and nat):
            return BoundEntry(bid, "upper", False)
        h = _harmonic(n)
        a_n = parts.count_leq(n)
        with mpmath.workdps(DEFAULT_DIGITS):
            value = mpmath.mpf(n) ** a_n * mpmath.exp(mpmath.mpf(h.numerator) / h.denominator)
        # the exact n^A(n) divided out, so only e^(H_n) is enclosed
        ok = certified_leq(
            Fraction(exact, n**a_n),
            lambda: iv.exp(iv.mpf(h.numerator) / iv.mpf(h.denominator)),
        )
        return BoundEntry(bid, "upper", True, value, ok)
    if bid in ("sqrt_lower", "classical_refined"):
        if not classical:
            return BoundEntry(bid, "lower", False)
        with mpmath.workdps(DEFAULT_DIGITS):
            if bid == "sqrt_lower":
                value = mpmath.exp(mpmath.sqrt(n)) / n
                builder = lambda: iv.exp(iv.sqrt(iv.mpf(n))) / n
            else:
                value = mpmath.exp(2 * mpmath.sqrt(n)) / (2 * mpmath.pi * n * n)
                builder = lambda: iv.exp(2 * iv.sqrt(iv.mpf(n))) / (2 * iv.pi * n * n)
        ok = certified_geq(exact, builder)
        return BoundEntry(bid, "lower", True, value, ok)
    if bid == "padberg":
        if not finite:
            return BoundEntry(bid, "lower", False)
        value = Fraction((n + 1) ** k, math.factorial(k) * prod)
        return BoundEntry(bid, "lower", True, value, sum(values) >= value)
    if bid == "eq10":
        if not finite or exact != max(values):
            return BoundEntry(bid, "lower", False)
        value = Fraction((n + 1) ** (k - 1), math.factorial(k) * prod)
        return BoundEntry(bid, "lower", True, value, exact >= value)
    if bid == "refined":
        value = _prefix_floor(n, parts) if n >= 1 and nat and gcd_of_set(parts) == 1 else None
        if value is None:
            return BoundEntry(bid, "lower", False)
        return BoundEntry(bid, "lower", True, value, exact >= value)
    assert bid == "slow_growth"
    if n < 16:
        return BoundEntry(bid, "asymptotic", False)
    with mpmath.workdps(DEFAULT_DIGITS):
        lg_n = mpmath.log(n, 2)
        lg_lg = mpmath.log(lg_n, 2)
        value = lg_n * mpmath.power(lg_lg, lg_lg)
    return BoundEntry(bid, "asymptotic", True, value)


ORACLE_PAIRS = [
    ("all", "nat"),
    ("finite:2,3", "nat"),
    ("finite:1", "nat"),
    ("pow:2", "nat"),
    ("dexp:2", "zero|dexp:2"),
    ("ap:2,3", "zero|ap:1,2"),
    ("all", "zero|finite:1"),
]
ORACLE_LIMIT = 120


class TestTableScaleReport:
    """bound_report reads table-wide facts computed once per table; every
    entry must equal the one the per-n formulas give."""

    @pytest.mark.parametrize(
        "parts,mults",
        [(parse_set_spec(p, "parts"), parse_set_spec(m, "mults")) for p, m in ORACLE_PAIRS]
        + [(Finite((2, 3, 7, 20, 45), source="anchors.txt"), NAT_MULTS)],
        ids=[f"{p}/{m}" for p, m in ORACLE_PAIRS] + ["sparse/nat"],
    )
    def test_report_matches_per_n_oracle(self, parts, mults):
        _assert_report_matches_oracle(count_table(ORACLE_LIMIT, parts, mults))

    @settings(max_examples=40, deadline=None)
    @given(
        parts=st.one_of(
            st.lists(st.integers(1, 30), min_size=1, max_size=4).map(
                lambda xs: Finite(tuple(xs))
            ),
            st.builds(ArithmeticProgression, st.integers(1, 6), st.integers(1, 6)),
            st.builds(Powers, st.integers(2, 5)),
        ),
        mults=st.one_of(
            st.just(NAT_MULTS),
            st.lists(st.integers(1, 12), max_size=4).map(lambda xs: Finite((0, *xs))),
            st.builds(
                lambda first, step: WithZero(ArithmeticProgression(first, step)),
                st.integers(1, 4),
                st.integers(1, 4),
            ),
        ),
        upto=st.integers(0, ORACLE_LIMIT),
    )
    def test_report_matches_per_n_oracle_on_generated_pairs(self, parts, mults, upto):
        _assert_report_matches_oracle(count_table(upto, parts, mults))

    def test_product_column_matches_per_n_products(self):
        for parts, mults in [
            (ALL_PARTS, NAT_MULTS),
            (Finite((3, 5)), WithZero(Finite((2, 7)))),
            (Powers(3), WithZero(ArithmeticProgression(2, 3))),
        ]:
            column = product_ceilings(count_table(200, parts, mults))
            assert column == [_fraction_product(n, parts, mults) for n in range(201)]


def _assert_report_matches_oracle(table):
    for n in range(table.upto + 1):
        expected = tuple(_oracle_entry(bid, table, n) for bid in BOUND_IDS)
        assert bound_report(table, n, BOUND_IDS) == expected, n
