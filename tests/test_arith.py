"""gcd analysis, coprime prefixes, Frobenius thresholds, monotonicity
criterion, and their consistency with the counting engine; the fixed-point
operations and series against exact rationals and mpmath."""

import math
import signal
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.arith import (
    arctan_inverse,
    coprime_prefix,
    cos_taylor,
    eventually_strictly_increasing,
    exp_taylor,
    fixed_pi,
    frobenius_threshold,
    gcd_of_set,
    product,
    quotient,
    rescale,
    schur_horizon,
)
from partlab.counting import count_table
from partlab.setspec import (
    ArithmeticProgression,
    DoublyExponential,
    Finite,
    InvalidSetError,
    NAT_MULTS,
    Powers,
    WithZero,
)


class TestGcdOfSet:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (Finite((6, 10, 15)), 1),
            (Finite((4, 6)), 2),
            (ArithmeticProgression(5, 1), 1),
            (ArithmeticProgression(4, 6), 2),
            (ArithmeticProgression(3, 7), 1),
            (Powers(3), 1),
            (DoublyExponential(2), 2),
            (DoublyExponential(3), 3),
            (Finite((6, 10), source="anchors.txt"), 2),
        ],
    )
    def test_analytic_values(self, spec, expected):
        assert gcd_of_set(spec) == expected

    def test_matches_prefix_gcd(self):
        # the analytic answer agrees with a direct gcd over a long prefix
        for spec in [
            ArithmeticProgression(4, 6),
            Powers(2),
            DoublyExponential(2),
            ArithmeticProgression(3, 1),
        ]:
            prefix = spec.elements_upto(10**6)
            assert gcd_of_set(spec) == math.gcd(*prefix)

    def test_multiplicity_set_rejected(self):
        with pytest.raises(InvalidSetError):
            gcd_of_set(WithZero(Powers(2)))


# part sets with gcd 1, finite and infinite
_coprime_specs = st.one_of(
    st.lists(st.integers(1, 60), min_size=1, max_size=6)
    .filter(lambda elems: math.gcd(*elems) == 1)
    .map(lambda elems: Finite(tuple(elems))),
    st.builds(ArithmeticProgression, st.integers(1, 50), st.just(1)),
    st.builds(ArithmeticProgression, st.integers(1, 50), st.integers(1, 50))
    .filter(lambda ap: math.gcd(ap.first, ap.step) == 1),
    st.builds(Powers, st.integers(2, 10)),
)


class TestCoprimePrefix:
    def test_chicken_set(self):
        prefix, gcds = coprime_prefix(Finite((6, 10, 15)))
        assert prefix == Finite((6, 10, 15))
        assert gcds == (6, 2, 1)

    def test_all(self):
        prefix, gcds = coprime_prefix(ArithmeticProgression(1, 1))
        assert prefix.elements == (1,)
        assert gcds == (1,)

    def test_gcd_two_errors(self):
        with pytest.raises(InvalidSetError):
            coprime_prefix(ArithmeticProgression(4, 6))

    def test_minimality(self):
        # every proper prefix of the trace stays above 1
        for spec in [Finite((6, 10, 15)), ArithmeticProgression(9, 5), Powers(2)]:
            _, gcds = coprime_prefix(spec)
            assert all(g > 1 for g in gcds[:-1])
            assert gcds[-1] == 1

    @settings(max_examples=200, deadline=None)
    @given(_coprime_specs)
    def test_gcds_trace_the_prefix(self, spec):
        # g_i = gcd(a_1, ..., a_i): nonincreasing, ending at 1, one per element
        prefix, gcds = coprime_prefix(spec)
        assert prefix.elements == tuple(spec.elements_upto(prefix.elements[-1]))
        assert len(gcds) == len(prefix.elements)
        assert all(b <= a for a, b in zip(gcds, gcds[1:]))
        assert gcds[-1] == 1
        assert gcds[0] == prefix.elements[0]


def _threshold_by_scan(elems):
    """The start of the first run of a_1 consecutive sums of elements, from
    which adding copies of a_1 reaches every n: a per-n reachability scan
    whose horizon doubles until the run is found."""
    limit = 2 * elems[-1] + elems[0]
    while True:
        reachable = [True] + [False] * limit
        for a in elems:
            for v in range(a, limit + 1):
                reachable[v] = reachable[v] or reachable[v - a]
        run = 0
        for v in range(limit + 1):
            run = run + 1 if reachable[v] else 0
            if run == elems[0]:
                return v - elems[0] + 1
        limit *= 2


# sets of up to 20 elements whose least one, a_1 <= 6, leaves most of the
# others sharing a residue class mod a_1
_repeating_residues = st.integers(1, 6).flatmap(
    lambda a1: st.lists(st.integers(a1, 120), max_size=19).map(lambda rest: Finite((a1, *rest)))
)


class TestFrobeniusThreshold:
    @pytest.mark.parametrize(
        "elems,expected",
        [((3, 5), 8), ((1,), 0), ((6, 10, 15), 30), ((2, 3), 2), ((3, 4, 5), 3)],
    )
    def test_known_values(self, elems, expected):
        assert frobenius_threshold(Finite(elems)) == expected

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
    @pytest.mark.parametrize("elems", [(4, 6), (0, 1), (0,)])
    def test_requires_positive_elements_with_gcd_one(self, elems):
        # no threshold exists, so without the check the scan never ends;
        # the alarm turns that into a failure instead of a hang
        def stop(*_):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, stop)
        signal.alarm(10)
        try:
            with pytest.raises(InvalidSetError):
                frobenius_threshold(Finite(elems))
        except TimeoutError:
            pytest.fail("the scan did not stop", pytrace=False)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 80), min_size=1, max_size=6).filter(
            lambda elems: math.gcd(*elems) == 1
        )
    )
    def test_matches_a_per_n_scan(self, elems):
        parts = Finite(tuple(elems))
        assert frobenius_threshold(parts) == _threshold_by_scan(parts.elements)

    @settings(max_examples=100, deadline=None)
    @given(_repeating_residues.filter(lambda parts: math.gcd(*parts.elements) == 1))
    def test_repeated_residues_match_a_per_n_scan(self, parts):
        # only the least element of each class mod a_1 is shifted in
        assert frobenius_threshold(parts) == _threshold_by_scan(parts.elements)

    def test_consecutive_pairs_meet_schurs_bound(self):
        # for {a, a + 1} the largest non-sum is (a - 1) a - 1, so the
        # threshold is (a_1 - 1)(a_k - 1) exactly: Schur's bound is tight
        for a in range(1, 60):
            parts = Finite((a, a + 1))
            expected = _threshold_by_scan(parts.elements)
            assert frobenius_threshold(parts) == expected == schur_horizon(parts) - a

    def test_two_element_formula(self):
        # classical closed form (a-1)(b-1) = ab - a - b + 1 as oracle
        for a in range(2, 31):
            for b in range(a + 1, 31):
                if math.gcd(a, b) != 1:
                    continue
                assert frobenius_threshold(Finite((a, b))) == a * b - a - b + 1

    @pytest.mark.parametrize("elems", [(3, 5), (6, 10, 15), (2, 3), (3, 4, 5)])
    def test_consistency_with_counting(self, elems):
        t = frobenius_threshold(Finite(elems))
        top = t + 2 * max(elems)
        table = count_table(max(top, t + 100), Finite(elems), NAT_MULTS)
        if t > 0:
            assert table.values[t - 1] == 0
        assert all(table.values[n] > 0 for n in range(t, t + 101))

    def test_gcd_two_scaling_zeros(self):
        table = count_table(200, ArithmeticProgression(4, 6), NAT_MULTS)
        assert all(table.values[n] == 0 for n in range(1, 201) if n % 2 == 1)


class TestStrictlyIncreasingCriterion:
    def test_examples(self):
        assert not eventually_strictly_increasing(Finite((2, 3)))
        assert eventually_strictly_increasing(Finite((3, 4, 5)))
        assert not eventually_strictly_increasing(Finite((2, 4, 5)))

    def test_singleton_is_false(self):
        # p is eventually constant for {1}, not strictly increasing
        assert not eventually_strictly_increasing(Finite((1,)))

    def test_matches_subset_definition(self):
        # criterion == every (k-1)-subset has gcd 1, with empty-set gcd 0
        for k in (1, 2, 3):
            for elems in combinations(range(1, 11), k):
                if math.gcd(*elems) != 1:
                    continue
                expected = all(
                    math.gcd(*sub) == 1
                    for sub in combinations(elems, k - 1)
                    if sub
                ) and k > 1
                got = eventually_strictly_increasing(Finite(elems))
                assert got == expected, elems


    @settings(max_examples=100, deadline=None)
    @given(_repeating_residues)
    def test_generated_sets_match_subset_definition(self, parts):
        # the gcd of each (k-1)-subset, one subset at a time; for k = 1 the
        # one subset is empty, with gcd 0
        elems = parts.elements
        expected = all(math.gcd(*sub) == 1 for sub in combinations(elems, len(elems) - 1))
        assert eventually_strictly_increasing(parts) == expected


# An error pair (X, e) stands for any real within e of X; the offsets put it
# at either end of that interval, or inside it
_offsets = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(1)]),
    st.fractions(-1, 1, max_denominator=1 << 16),
)
_values = st.integers(-(1 << 600), 1 << 600)
_errors = st.integers(0, 1 << 520)
_scales = st.integers(0, 512)
_divisors = st.one_of(st.integers(1, 1 << 520), _scales.map(lambda q: 1 << q))


@st.composite
def _quotient_corners(draw):
    """Arguments (a, ea, b, eb, q) of quotient, a >= 0, whose value's floor
    and both error terms, ea 2^q / d and a eb 2^q / (b d) for d = b - eb,
    have fractional parts near 1 together, where flooring the two error
    terms apart falls short: they are built from chosen remainders, a 2^q = -t (mod b d)
    and ea 2^q = -s (mod d), for small s and t.  2^q is inverted mod b d,
    so q is 0 when b d is even."""
    b = draw(st.integers(2, 1 << 64))
    eb = draw(st.integers(1, b - 1))
    d = b - eb
    q = draw(_scales) if b * d % 2 else 0
    s, t = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a = -t * pow(2, -q, b * d) % (b * d) + b * d * draw(st.integers(0, 1 << 64))
    ea = -s * pow(2, -q, d) % d + d * draw(st.integers(0, 1 << 64))
    return a, ea, b, eb, q


def _within(pair, exact):
    """The fixed-point pair (X, e) errs from exact by at most e."""
    value, error = pair
    return abs(value - exact) <= error


def _half_pi_scaled(q):
    """floor(pi / 2 * 2^q), the largest argument cos_taylor takes."""
    with mpmath.workprec(q + 64):
        return int(mpmath.floor(mpmath.pi * 2 ** (q - 1)))


class TestFixedPoint:
    """Each operation's result against its exact rational value, each series
    against mpmath at 4q + 64 bits: both share no code with arith."""

    @settings(max_examples=100, deadline=None)
    @given(_values, _errors, _divisors, _offsets)
    def test_rescale(self, x, e, c, t):
        assert _within(rescale(x, e, c), (x + t * e) / c)

    @settings(max_examples=100, deadline=None)
    @given(_values, _errors, _values, _errors, _divisors, _offsets, _offsets)
    def test_product(self, a, ea, b, eb, c, ta, tb):
        assert _within(product(a, ea, b, eb, c), (a + ta * ea) * (b + tb * eb) / c)

    @settings(max_examples=100, deadline=None)
    @given(_values, _errors, _errors, st.integers(1, 1 << 520), _scales, _offsets, _offsets)
    def test_quotient(self, a, ea, eb, gap, q, ta, tb):
        b = eb + gap
        assert _within(quotient(a, ea, b, eb, q), (a + ta * ea) * 2**q / (b + tb * eb))

    def test_quotient_at_the_corner_of_both_floors(self):
        # the true quotient 32 * 2 / 11 lies 4.82 above the value 1: each of
        # the error's two terms has a fraction above 0.9, and so has the
        # value's floor, so they must be floored as one sum
        assert _within(quotient(27, 5, 28, 17, 1), Fraction(32 * 2, 11))

    @settings(max_examples=100, deadline=None)
    @given(_quotient_corners())
    def test_quotient_at_generated_corners(self, args):
        # the true values at the corner a + ea, b - eb, farthest above the value
        a, ea, b, eb, q = args
        assert _within(quotient(a, ea, b, eb, q), Fraction((a + ea) << q, b - eb))

    @settings(max_examples=60, deadline=None)
    @given(_scales.filter(bool))
    def test_fixed_pi(self, q):
        with mpmath.workprec(4 * q + 64):
            assert _within(fixed_pi(q), mpmath.pi * 2**q)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.sampled_from([3, 5, 239]), st.integers(3, 10**6)), _scales, st.booleans())
    def test_arctan_inverse(self, x, q, alternating):
        with mpmath.workprec(4 * q + 64):
            f = mpmath.atan if alternating else mpmath.atanh
            assert _within(arctan_inverse(x, q, alternating), f(mpmath.mpf(1) / x) * 2**q)

    @settings(max_examples=100, deadline=None)
    @given(_scales.flatmap(lambda q: st.tuples(st.integers(0, 1 << q), st.just(q))))
    def test_exp_taylor(self, args):
        r, q = args
        with mpmath.workprec(4 * q + 64):
            assert _within(exp_taylor(r, q), mpmath.exp(mpmath.mpf(r) / 2**q) * 2**q)

    @settings(max_examples=100, deadline=None)
    @given(_scales.flatmap(lambda q: st.tuples(st.integers(0, _half_pi_scaled(q)), st.just(q))))
    def test_cos_taylor(self, args):
        x, q = args
        with mpmath.workprec(4 * q + 64):
            assert _within(cos_taylor(x, q), mpmath.cos(mpmath.mpf(x) / 2**q) * 2**q)
