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
from mpmath import iv

from partlab import bounds
from partlab.arith import FiniteCoprimeSet, gcd_of_set
from partlab.bounds import (
    BOUND_IDS,
    BOUND_REGISTRY,
    DEFAULT_DIGITS,
    BoundEntry,
    ExistenceWitness,
    HighPrecisionReal,
    PrecisionError,
    _Bound,
    bound_report,
    certified_geq,
    certified_leq,
    certify_increasing,
    check_existence_lower_bound,
    classical_refined_comparison,
    classical_refined_term,
    classical_sqrt_lower,
    debruijn_leading_term,
    debruijn_log_term,
    debruijn_upper_bound,
    exp_harmonic_term,
    harmonic_chain_bound,
    harmonic_number,
    harmonic_numbers,
    hrr_leading_term,
    interval_endpoints,
    j_of_n,
    monotone_lower_bound,
    padberg_lower,
    product_upper_bound,
    product_upper_column,
    refined_lower_bound,
    schur_asymptotic,
    schur_style_point_lower,
    slow_growth_closed_form,
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
    SparseConstructed,
    WithZero,
    parse_set_spec,
)

DEXP_PARTS = DoublyExponential(2)
DEXP_MULTS = WithZero(DoublyExponential(2))


class TestProductUpper:
    def test_small_values(self):
        assert product_upper_bound(4, ALL_PARTS, NAT_MULTS) == 60
        assert product_upper_bound(0, ALL_PARTS, NAT_MULTS) == 1
        assert product_upper_bound(8, DEXP_PARTS, DEXP_MULTS) == 6

    def test_dominates_count(self):
        for parts, mults, top in [
            (ALL_PARTS, NAT_MULTS, 60),
            (Finite((2, 3)), NAT_MULTS, 200),
            (DEXP_PARTS, DEXP_MULTS, 300),
            (Powers(2), WithZero(Powers(2)), 300),
        ]:
            table = count_table(top, parts, mults)
            for n in range(top + 1):
                assert table.values[n] <= product_upper_bound(n, parts, mults), n

    @pytest.mark.parametrize("parts", [ALL_PARTS, Finite((2, 3)), DEXP_PARTS])
    def test_zero_only_multiplicities(self, parts):
        # no positive multiplicity: every factor M(n // a) is 1
        zero = Finite((0,))
        assert product_upper_column(5, parts, zero) == (1, 1, 1, 1, 1, 1)
        assert [product_upper_bound(n, parts, zero) for n in range(6)] == [1] * 6
        assert [monotone_lower_bound(n, parts, zero) for n in range(1, 6)] == [
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
        # every earlier index sits strictly below the threshold
        for n in (4, 6, 9):
            table = count_table(n * n, ALL_PARTS)
            w = check_existence_lower_bound(n, table)
            assert all(table.values[r] < w.threshold for r in range(w.r))
            assert w.witness >= w.threshold

    def test_reuses_table(self):
        # a table past n^2 is read as it is; the search stops at n^2
        table = count_table(100, ALL_PARTS)
        assert check_existence_lower_bound(4, table) == check_existence_lower_bound(
            4, count_table(16, ALL_PARTS)
        )

    def test_rejects_short_table(self):
        with pytest.raises(ValueError):
            check_existence_lower_bound(4, count_table(15, ALL_PARTS))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_existence_lower_bound(0, count_table(1, ALL_PARTS))


class TestMonotoneLower:
    def test_values(self):
        assert monotone_lower_bound(100, ALL_PARTS, NAT_MULTS) == Fraction(76032, 101)
        assert monotone_lower_bound(1, ALL_PARTS, NAT_MULTS) == 1
        assert monotone_lower_bound(16, DEXP_PARTS, DEXP_MULTS) == Fraction(2, 17)

    def test_holds_for_nondecreasing_table(self):
        table = count_table(400, ALL_PARTS)
        assert table.is_nondecreasing()
        for n in range(1, 401):
            assert table.values[n] >= monotone_lower_bound(n, ALL_PARTS, NAT_MULTS)

    def test_exact_sqrt_threshold(self):
        # isqrt keeps mu*a <= sqrt(n) exact at perfect squares
        assert monotone_lower_bound(15, Finite((4,)), NAT_MULTS) == Fraction(1, 16)
        assert monotone_lower_bound(16, Finite((4,)), NAT_MULTS) == Fraction(2, 17)


class TestPolynomialFamily:
    def test_schur_values(self):
        assert schur_asymptotic(1000, FiniteCoprimeSet((1, 2, 3))) == Fraction(
            10**6, 12
        )
        assert schur_asymptotic(77, FiniteCoprimeSet((1,))) == 1

    def test_padberg_values(self):
        assert padberg_lower(10, FiniteCoprimeSet((2, 3))) == Fraction(121, 12)
        assert padberg_lower(0, FiniteCoprimeSet((3, 5))) == Fraction(1, 30)

    def test_point_lower_value(self):
        assert schur_style_point_lower(10, FiniteCoprimeSet((2, 3))) == Fraction(
            11, 12
        )

    def test_point_lower_at_records(self):
        table = count_table(10, Finite((2, 3)))
        records = table.record_indices()
        assert 10 in records and 7 not in records
        cset = FiniteCoprimeSet((2, 3))
        for n in records:
            assert table.values[n] >= schur_style_point_lower(n, cset)


class TestRefined:
    def test_j_of_n(self):
        assert j_of_n(100, ALL_PARTS) == 10
        assert j_of_n(5, DEXP_PARTS) == 2
        assert j_of_n(1, ALL_PARTS) == 1
        with pytest.raises(ValueError):
            j_of_n(100, Finite((2, 3)))

    def test_values(self):
        assert refined_lower_bound(100, ALL_PARTS) == Fraction(
            101**9, math.factorial(10) ** 2
        )
        assert refined_lower_bound(4, ALL_PARTS) == Fraction(5, 4)
        assert refined_lower_bound(1, ALL_PARTS) == 1

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            refined_lower_bound(100, ArithmeticProgression(4, 6))

    def test_improves_on_fixed_prefix(self):
        # at large n the adaptive prefix beats any fixed k-term prefix bound
        n = 2000
        fixed = schur_style_point_lower(n, FiniteCoprimeSet((1, 2, 3)))
        assert refined_lower_bound(n, ALL_PARTS) > fixed


class TestHarmonic:
    def test_harmonic_number(self):
        assert harmonic_number(1) == 1
        assert harmonic_number(4) == Fraction(25, 12)
        assert harmonic_number(0) == 0

    def test_harmonic_numbers_running_sum(self):
        assert harmonic_numbers(40) == tuple(harmonic_number(n) for n in range(41))
        assert harmonic_numbers(0) == (0,)

    def test_chain_value_with_given_harmonic_number(self):
        assert harmonic_chain_bound(9, Powers(2), h=harmonic_number(9)) == (
            harmonic_chain_bound(9, Powers(2))
        )

    def test_chain_value(self):
        hp = harmonic_chain_bound(4, ALL_PARTS)
        assert abs(hp.value - 2055.9859) < 1e-3

    def test_chain_is_upper_bound(self):
        table = count_table(300, Powers(2))
        for n in (16, 100, 300):
            assert table.values[n] <= harmonic_chain_bound(n, Powers(2)).value


class TestTranscendentalTerms:
    def test_hrr_values(self):
        hp = hrr_leading_term(100)
        assert abs(hp.value / 199280893.3497 - 1) < 1e-10
        assert abs(hrr_leading_term(1).value - 1.876670423) < 1e-8

    def test_hrr_ratio_near_one(self):
        assert abs(hrr_leading_term(100).value / 190569292 - 1.0457136) < 1e-6

    def test_debruijn_leading(self):
        assert abs(debruijn_leading_term(2**10).value - 18.000519) < 1e-5
        with pytest.raises(ValueError):
            debruijn_leading_term(2)

    def test_debruijn_upper_value(self):
        # log(17) * log2(16) at n = 8
        expected = math.log(17) * 4 / math.log(2) * math.log(2)
        assert abs(debruijn_upper_bound(8).value - math.log(17) * 4) < 1e-10

    def test_sqrt_and_refined_values(self):
        assert abs(classical_sqrt_lower(100).value - 220.26466) < 1e-4
        assert abs(classical_refined_comparison(100).value - 7721.6439) < 1e-3

    def test_slow_growth_exact_points(self):
        # powers of 2 with power-of-2 exponents give integer values
        assert slow_growth_closed_form(2**16).value == 4096
        assert slow_growth_closed_form(2**256).value == 256 * 8**8
        with pytest.raises(ValueError):
            slow_growth_closed_form(15)


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
    assert HighPrecisionReal._fields == ("value",)


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

# each transcendental registry bound's public evaluator and the formula its
# enclosure is made from; debruijn_upper's evaluator gives the log of the
# bound
_EVALUATORS = {
    "classical_refined": (classical_refined_comparison, classical_refined_term),
    "debruijn_upper": (debruijn_upper_bound, debruijn_log_term),
    "harmonic_chain": (
        lambda n: harmonic_chain_bound(n, Powers(2)),
        lambda ctx, n: exp_harmonic_term(ctx, harmonic_number(n)),
    ),
    "sqrt_lower": (classical_sqrt_lower, sqrt_lower_term),
}


@cache
def _formula_table(parts):
    return count_table(_FORMULA_LIMIT, parts)


class TestOneFormula:
    """A transcendental bound's displayed value (mp) and the enclosure its
    verdict is certified against (iv) come from one formula, so they agree
    to the working precision."""

    def test_transcendental_bounds_listed(self):
        with_enclosure = {bid for bid, b in BOUND_REGISTRY.items() if b.enclosure is not None}
        assert with_enclosure == set(_TRANSCENDENTAL_PARTS)

    @pytest.mark.parametrize("bid", sorted(_TRANSCENDENTAL_PARTS))
    @settings(max_examples=25, deadline=None)
    @given(half_n=st.integers(1, _FORMULA_LIMIT // 2))
    def test_value_inside_enclosure(self, bid, half_n):
        n = 2 * half_n if bid == "debruijn_upper" else half_n
        table = _formula_table(_TRANSCENDENTAL_PARTS[bid])
        bound = BOUND_REGISTRY[bid]
        assert bound.applies(n, table)
        shown = bound.value(n, table).value
        if bid == "harmonic_chain":
            # the exact factor n^A(n) is divided out before certification
            with mpmath.workdps(DEFAULT_DIGITS):
                shown = shown / n ** table.parts.count_leq(n)
        assert _within_enclosure(shown, lambda: bound.enclosure(n, table))

    @pytest.mark.parametrize("bid", sorted(_EVALUATORS))
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, _FORMULA_LIMIT))
    def test_evaluator_inside_enclosure(self, bid, n):
        evaluate, term = _EVALUATORS[bid]
        shown = evaluate(n).value
        if bid == "harmonic_chain":
            with mpmath.workdps(DEFAULT_DIGITS):
                shown = shown / n ** Powers(2).count_leq(n)
        assert _within_enclosure(shown, lambda: term(iv, n))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(16, 2**80))
    def test_slow_growth_inside_enclosure(self, n):
        value = slow_growth_closed_form(n).value
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
    increasing_from on, the enclosed term never decreases over the n the
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
        assert all(BOUND_REGISTRY[bid].enclosure is not None for bid in declared)

    def test_enclosure_needs_a_declared_range(self):
        applies, value = (lambda n, t: True), (lambda n, t: 0)
        enclosure = lambda n, t: iv.mpf(n)
        with pytest.raises(TypeError):
            _Bound("upper", applies, value, enclosure=enclosure)
        with pytest.raises(TypeError):
            _Bound("upper", applies, value, increasing_from=1)
        assert _Bound("upper", applies, value, enclosure=enclosure, increasing_from=1)

    @pytest.mark.parametrize("bid", sorted(_TRANSCENDENTAL_PARTS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_enclosures_increase(self, bid, data):
        table, points = _monotone_points(bid)
        i = data.draw(st.integers(0, len(points) - 2))
        n, m = points[i], data.draw(st.sampled_from(points[i + 1 :]))
        b = BOUND_REGISTRY[bid]
        _, hi_n = interval_endpoints(lambda: b.enclosure(n, table), 50)
        lo_m, _ = interval_endpoints(lambda: b.enclosure(m, table), 50)
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
        rep = bound_report(table, 100)
        assert rep.exact == 190569292
        by_id = {e.bound_id: e for e in rep.entries}
        assert by_id["product_upper"].satisfied is True
        assert by_id["monotone_lower"].satisfied is True
        assert by_id["refined"].satisfied is True
        assert by_id["sqrt_lower"].satisfied is True
        assert by_id["hrr"].satisfied is None  # asymptotic reference only
        assert by_id["debruijn_upper"].applicable is False
        assert by_id["padberg"].applicable is False  # infinite part set

    def test_binary_report(self):
        table = count_table(16, Powers(2))
        rep = bound_report(table, 16, ["debruijn_upper", "harmonic_chain"])
        by_id = {e.bound_id: e for e in rep.entries}
        assert by_id["debruijn_upper"].applicable is True
        assert by_id["debruijn_upper"].satisfied is True
        assert by_id["harmonic_chain"].satisfied is True
        odd = bound_report(table, 15, ["debruijn_upper"])
        assert odd.entries[0].applicable is False

    def test_eq10_only_at_records(self):
        table = count_table(10, Finite((2, 3)))
        assert bound_report(table, 10, ["eq10"]).entries[0].applicable is True
        assert bound_report(table, 7, ["eq10"]).entries[0].applicable is False

    def test_verdicts_follow_the_table_object(self):
        # a column is kept on the table it was built for, so a table with
        # the same pair but planted values gets its own verdicts
        real = count_table(300, ALL_PARTS)
        planted = CountTable(real.parts, real.mults, real.values[:200] + (1,) + real.values[201:])
        assert bound_report(real, 200, ["sqrt_lower"]).entries[0].satisfied is True
        assert bound_report(planted, 200, ["sqrt_lower"]).entries[0].satisfied is False
        assert bound_report(real, 200, ["sqrt_lower"]).entries[0].satisfied is True

    def test_columns_are_built_once_per_table(self):
        table = count_table(50, Finite((2, 3)))
        for bid in BOUND_IDS:
            assert value_column(bid, table) is value_column(bid, table)
            assert verdict_column(bid, table) is verdict_column(bid, table)
        values, verdicts = value_column("eq10", table), verdict_column("eq10", table)
        assert [n for n, v in enumerate(values) if v is not None] == table.record_indices()
        assert [n for n, ok in enumerate(verdicts) if ok is not None] == table.record_indices()
        assert verdict_column("schur", table) == [None] * 51  # asymptotic: no verdicts

    def test_monotone_applicability_tracks_data(self):
        table = count_table(10, Finite((2, 3)))
        rep = bound_report(table, 10, ["monotone_lower"])
        assert rep.entries[0].applicable is False  # p dips at odd n


def _fraction_product(n, parts, mults):
    """The product ceiling with rational thresholds M(n/a), as first written."""
    mp_min = mults.min_positive()
    out = 1
    for a in parts.elements_upto(n // mp_min if n >= mp_min else 0):
        out *= mults.count_leq(Fraction(n, a))
    return out


def _oracle_entry(bid, table, n):
    """The BoundEntry for one bound at one n, from per-n formulas that use
    nothing table-wide: the rational-threshold product, harmonic_number(n),
    and sum, max and a nondecreasing scan over values[: n + 1]."""
    parts, mults = table.parts, table.mults
    values = table.values[: n + 1]
    exact = values[n]
    nat = mults == NAT_MULTS
    cset = None
    if nat and isinstance(parts, Finite) and math.gcd(*parts.elements) == 1:
        cset = FiniteCoprimeSet(parts.elements)
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
        if cset is None:
            return BoundEntry(bid, "asymptotic", False)
        return BoundEntry(bid, "asymptotic", True, schur_asymptotic(n, cset))
    if bid == "hrr":
        if not classical:
            return BoundEntry(bid, "asymptotic", False)
        return BoundEntry(bid, "asymptotic", True, hrr_leading_term(n))
    if bid == "debruijn_upper":
        if not (n >= 2 and n % 2 == 0 and nat and parts == Powers(2)):
            return BoundEntry(bid, "upper", False)
        with mpmath.workdps(DEFAULT_DIGITS):
            value = HighPrecisionReal(mpmath.exp(debruijn_upper_bound(n // 2).value))
        ok = certified_leq(
            exact,
            lambda: iv.exp(iv.log(iv.mpf(n + 1)) * iv.log(iv.mpf(n)) / iv.log(iv.mpf(2))),
        )
        return BoundEntry(bid, "upper", True, value, ok)
    if bid == "harmonic_chain":
        if not (n >= 1 and nat):
            return BoundEntry(bid, "upper", False)
        h = harmonic_number(n)
        ok = certified_leq(
            Fraction(exact, n ** parts.count_leq(n)),
            lambda: iv.exp(iv.mpf(h.numerator) / iv.mpf(h.denominator)),
        )
        return BoundEntry(bid, "upper", True, harmonic_chain_bound(n, parts), ok)
    if bid in ("sqrt_lower", "classical_refined"):
        if not classical:
            return BoundEntry(bid, "lower", False)
        if bid == "sqrt_lower":
            value = classical_sqrt_lower(n)
            builder = lambda: iv.exp(iv.sqrt(iv.mpf(n))) / n
        else:
            value = classical_refined_comparison(n)
            builder = lambda: iv.exp(2 * iv.sqrt(iv.mpf(n))) / (2 * iv.pi * n * n)
        ok = certified_geq(exact, builder)
        return BoundEntry(bid, "lower", True, value, ok)
    if bid == "padberg":
        if cset is None:
            return BoundEntry(bid, "lower", False)
        value = padberg_lower(n, cset)
        return BoundEntry(bid, "lower", True, value, sum(values) >= value)
    if bid == "eq10":
        if cset is None or exact != max(values):
            return BoundEntry(bid, "lower", False)
        value = schur_style_point_lower(n, cset)
        return BoundEntry(bid, "lower", True, value, exact >= value)
    if bid == "refined":
        try:
            refinable = (
                n >= 1 and nat and gcd_of_set(parts) == 1 and j_of_n(n, parts) >= 1
            )
        except ValueError:  # finite part set exhausted
            refinable = False
        if not refinable:
            return BoundEntry(bid, "lower", False)
        value = refined_lower_bound(n, parts)
        return BoundEntry(bid, "lower", True, value, exact >= value)
    assert bid == "slow_growth"
    if n < 16:
        return BoundEntry(bid, "asymptotic", False)
    return BoundEntry(bid, "asymptotic", True, slow_growth_closed_form(n))


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
        + [(SparseConstructed((2, 3, 7, 20, 45)), NAT_MULTS)],
        ids=[f"{p}/{m}" for p, m in ORACLE_PAIRS] + ["sparse/nat"],
    )
    def test_report_matches_per_n_oracle(self, parts, mults):
        table = count_table(ORACLE_LIMIT, parts, mults)
        for n in range(ORACLE_LIMIT + 1):
            report = bound_report(table, n, BOUND_IDS)
            assert report.exact == table.values[n]
            expected = tuple(_oracle_entry(bid, table, n) for bid in BOUND_IDS)
            assert report.entries == expected, n

    def test_product_column_matches_per_n_products(self):
        for parts, mults in [
            (ALL_PARTS, NAT_MULTS),
            (Finite((3, 5)), WithZero(Finite((2, 7)))),
            (Powers(3), WithZero(ArithmeticProgression(2, 3))),
        ]:
            column = product_upper_column(200, parts, mults)
            assert column == tuple(
                _fraction_product(n, parts, mults) for n in range(201)
            )
            assert column == tuple(product_upper_bound(n, parts, mults) for n in range(201))
