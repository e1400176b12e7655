"""DP counting engine against independent oracles and structural laws."""

import pytest

from partlab.arith import FiniteCoprimeSet
from partlab.counting import (
    BRUTE_FORCE_LIMIT,
    KERNEL_BACKEND,
    brute_force_count,
    count_partitions,
    count_table,
    cumulative_count,
    finite_coprime_parts,
    pentagonal_table,
)
from partlab import _dpcore_py
from partlab.setspec import (
    ALL_PARTS,
    NAT_MULTS,
    AllFrom,
    ArithmeticProgression,
    DoublyExponential,
    Finite,
    InvalidSetError,
    Powers,
    WithZero,
    parse_set_spec,
)

try:
    from partlab import _dpcore
except ImportError:
    _dpcore = None

PAIRS = [
    (ALL_PARTS, NAT_MULTS),
    (AllFrom(2), NAT_MULTS),
    (Finite((2, 3)), NAT_MULTS),
    (Finite((6, 10, 15)), NAT_MULTS),
    (ArithmeticProgression(3, 4), NAT_MULTS),
    (Powers(2), NAT_MULTS),
    (DoublyExponential(2), WithZero(DoublyExponential(2))),
    (ALL_PARTS, Finite((0, 1))),
    (ALL_PARTS, WithZero(Finite((2, 3)))),
    (Powers(2), WithZero(Powers(2))),
]

# enumeration cost explodes with the count itself, so the dense pairs
# stop short of the cap here; the acceptance sweep runs the full corpus
_BRUTE_LIMITS = {0: 28, 1: 30, 7: 32}


class TestOracles:
    @pytest.mark.parametrize("idx", range(len(PAIRS)))
    def test_brute_force_agreement(self, idx):
        parts, mults = PAIRS[idx]
        limit = _BRUTE_LIMITS.get(idx, BRUTE_FORCE_LIMIT)
        table = count_table(limit, parts, mults)
        for n in range(limit + 1):
            assert table.values[n] == brute_force_count(n, parts, mults), n

    def test_pentagonal_recurrence(self):
        # Euler's recurrence shares no code with the DP layers
        assert count_table(500, ALL_PARTS).values == tuple(pentagonal_table(500))

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            brute_force_count(BRUTE_FORCE_LIMIT + 1, ALL_PARTS)


class TestKnownValues:
    def test_classical(self):
        t = count_table(100, ALL_PARTS)
        assert t.values[:11] == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
        assert t.values[100] == 190569292

    def test_distinct_parts(self):
        # multiplicities in {0, 1}
        t = count_table(10, ALL_PARTS, Finite((0, 1)))
        assert t.values[10] == 10

    def test_binary_partitions(self):
        assert count_partitions(16, Powers(2)) == 36

    def test_two_parts(self):
        t = count_table(10, Finite((2, 3)))
        assert t.values == (1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2)

    def test_single_part(self):
        t = count_table(9, Finite((3,)))
        assert t.values == (1, 0, 0, 1, 0, 0, 1, 0, 0, 1)

    def test_empty_sum(self):
        # the empty partition always counts
        for parts, mults in PAIRS:
            assert count_table(0, parts, mults).values == (1,)


class TestStructuralLaws:
    def test_monotone_in_parts(self):
        # a larger part set never loses partitions
        small = count_table(200, AllFrom(2)).values
        big = count_table(200, ALL_PARTS).values
        assert all(s <= b for s, b in zip(small, big))
        small = count_table(200, Finite((3, 5))).values
        big = count_table(200, Finite((3, 5, 7))).values
        assert all(s <= b for s, b in zip(small, big))

    def test_monotone_in_mults(self):
        chains = [
            (Finite((0, 1)), WithZero(Finite((1, 2)))),
            (WithZero(Finite((1, 2))), NAT_MULTS),
        ]
        for lo, hi in chains:
            a = count_table(200, ALL_PARTS, lo).values
            b = count_table(200, ALL_PARTS, hi).values
            assert all(x <= y for x, y in zip(a, b))

    def test_gcd_scaling(self):
        # multiplying every part by g rescales the index axis
        doubled = count_table(400, ArithmeticProgression(4, 6)).values
        base = count_table(200, ArithmeticProgression(2, 3)).values
        for n in range(401):
            expected = base[n // 2] if n % 2 == 0 else 0
            assert doubled[n] == expected, n
        doubled = count_table(120, Finite((6, 10))).values
        base = count_table(60, Finite((3, 5))).values
        for n in range(121):
            expected = base[n // 2] if n % 2 == 0 else 0
            assert doubled[n] == expected, n

    def test_record_indices(self):
        t = count_table(10, Finite((2, 3)))
        assert t.record_indices() == [0, 2, 3, 4, 5, 6, 8, 9, 10]
        assert count_table(30, ALL_PARTS).record_indices() == list(range(31))

    def test_is_nondecreasing(self):
        assert count_table(300, ALL_PARTS).is_nondecreasing()
        assert not count_table(10, Finite((2, 3))).is_nondecreasing()

    @pytest.mark.parametrize("parts,mults", PAIRS)
    def test_table_facts_match_prefix_scans(self, parts, mults):
        t = count_table(60, parts, mults)
        v = t.values
        for n in range(61):
            assert t.prefix_sums[n] == sum(v[: n + 1]), n
            assert t.record_flags[n] == (v[n] == max(v[: n + 1])), n
            prefix_ok = all(a <= b for a, b in zip(v[: n + 1], v[1 : n + 1]))
            assert (n < t.nondecreasing_prefix) == prefix_ok, n


class TestFiniteCoprimeParts:
    def test_finite_coprime_with_all_multiplicities(self):
        assert finite_coprime_parts(Finite((3, 2)), NAT_MULTS) == FiniteCoprimeSet((2, 3))

    def test_other_settings_give_none(self):
        assert finite_coprime_parts(Finite((2, 4)), NAT_MULTS) is None
        assert finite_coprime_parts(ALL_PARTS, NAT_MULTS) is None
        assert finite_coprime_parts(Finite((2, 3)), Finite((0, 1))) is None


class TestValidation:
    def test_parts_with_zero_rejected(self):
        with pytest.raises(InvalidSetError):
            count_table(5, Finite((0, 3)), NAT_MULTS)

    def test_mults_without_zero_rejected(self):
        with pytest.raises(InvalidSetError):
            count_table(5, ALL_PARTS, Finite((1, 2)))

    def test_negative_upto(self):
        with pytest.raises(ValueError):
            count_table(-1, ALL_PARTS)


class TestCumulative:
    def test_examples(self):
        assert cumulative_count(10, FiniteCoprimeSet((2, 3))) == 14
        assert cumulative_count(0, FiniteCoprimeSet((2, 3))) == 1
        assert cumulative_count(5, FiniteCoprimeSet((1,))) == 6

    def test_matches_prefix_sums(self):
        values = count_table(50, Finite((3, 5))).values
        total = 0
        cset = FiniteCoprimeSet((3, 5))
        for n in range(51):
            total += values[n]
            assert cumulative_count(n, cset) == total


class TestKernels:
    def test_backend_reported(self):
        assert KERNEL_BACKEND in ("cython", "python")

    @pytest.mark.skipif(_dpcore is None, reason="extension not built")
    @pytest.mark.parametrize("parts,mults", PAIRS, ids=range(len(PAIRS)))
    def test_backends_agree(self, parts, mults):
        fast = count_table(300, parts, mults, kernel=_dpcore)
        slow = count_table(300, parts, mults, kernel=_dpcore_py)
        assert fast.values == slow.values

    def test_spec_string_round_trip_pairs(self):
        # the same tables come out when specs go through the parser
        for spec_str, upto in [("finite:2,3", 60), ("pow:3", 100)]:
            parsed = parse_set_spec(spec_str, kind="parts")
            direct = (
                Finite((2, 3)) if spec_str.startswith("finite") else Powers(3)
            )
            assert (
                count_table(upto, parsed).values
                == count_table(upto, direct).values
            )
