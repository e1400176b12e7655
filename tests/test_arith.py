"""gcd analysis, coprime prefixes, Frobenius thresholds, monotonicity
criterion, and their consistency with the counting engine."""

import math
from itertools import combinations

import pytest

from partlab.arith import (
    FiniteCoprimeSet,
    PrefixGcdTrace,
    coprime_prefix,
    eventually_strictly_increasing,
    frobenius_threshold,
    gcd_of_set,
    is_eventually_positive,
)
from partlab.counting import count_table
from partlab.setspec import (
    AllFrom,
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
            (AllFrom(5), 1),
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
            AllFrom(3),
        ]:
            prefix = spec.elements_upto(10**6)
            assert gcd_of_set(spec) == math.gcd(*prefix)

    def test_multiplicity_set_rejected(self):
        with pytest.raises(InvalidSetError):
            gcd_of_set(WithZero(Powers(2)))


class TestCoprimePrefix:
    def test_chicken_set(self):
        cset, trace = coprime_prefix(Finite((6, 10, 15)))
        assert cset.elements == (6, 10, 15)
        assert trace.gcds == (6, 2, 1)
        assert trace.prefix_length == 3

    def test_all(self):
        cset, trace = coprime_prefix(AllFrom(1))
        assert cset.elements == (1,)
        assert trace.gcds == (1,)

    def test_gcd_two_errors(self):
        with pytest.raises(InvalidSetError):
            coprime_prefix(ArithmeticProgression(4, 6))

    def test_minimality(self):
        # every proper prefix of the trace stays above 1
        for spec in [Finite((6, 10, 15)), ArithmeticProgression(9, 5), Powers(2)]:
            _, trace = coprime_prefix(spec)
            assert all(g > 1 for g in trace.gcds[:-1])
            assert trace.gcds[-1] == 1

    def test_trace_validation(self):
        with pytest.raises(InvalidSetError):
            PrefixGcdTrace((2, 3, 1))  # not nonincreasing
        with pytest.raises(InvalidSetError):
            PrefixGcdTrace((4, 2))  # does not end at 1


class TestEventuallyPositive:
    def test_examples(self):
        assert is_eventually_positive(Finite((3, 5)))
        assert not is_eventually_positive(DoublyExponential(2))
        assert is_eventually_positive(ArithmeticProgression(3, 7))


class TestFiniteCoprimeSet:
    def test_requires_gcd_one(self):
        with pytest.raises(InvalidSetError):
            FiniteCoprimeSet((4, 6))

    def test_normalizes(self):
        cset = FiniteCoprimeSet((5, 3, 3))
        assert cset.elements == (3, 5)
        assert cset.k == 2
        assert cset.product() == 15


class TestFrobeniusThreshold:
    @pytest.mark.parametrize(
        "elems,expected",
        [((3, 5), 8), ((1,), 0), ((6, 10, 15), 30), ((2, 3), 2), ((3, 4, 5), 3)],
    )
    def test_known_values(self, elems, expected):
        assert frobenius_threshold(FiniteCoprimeSet(elems)) == expected

    def test_two_element_formula(self):
        # classical closed form (a-1)(b-1) = ab - a - b + 1 as oracle
        for a in range(2, 31):
            for b in range(a + 1, 31):
                if math.gcd(a, b) != 1:
                    continue
                cset = FiniteCoprimeSet((a, b))
                assert frobenius_threshold(cset) == a * b - a - b + 1

    @pytest.mark.parametrize("elems", [(3, 5), (6, 10, 15), (2, 3), (3, 4, 5)])
    def test_consistency_with_counting(self, elems):
        cset = FiniteCoprimeSet(elems)
        t = frobenius_threshold(cset)
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
        assert not eventually_strictly_increasing(FiniteCoprimeSet((2, 3)))
        assert eventually_strictly_increasing(FiniteCoprimeSet((3, 4, 5)))
        assert not eventually_strictly_increasing(FiniteCoprimeSet((2, 4, 5)))

    def test_singleton_is_false(self):
        # p is eventually constant for {1}, not strictly increasing
        assert not eventually_strictly_increasing(FiniteCoprimeSet((1,)))

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
                got = eventually_strictly_increasing(FiniteCoprimeSet(elems))
                assert got == expected, elems
