"""DP counting engine against independent oracles and structural laws."""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partlab
from partlab import bounds, cli, counting, suites
from partlab.counting import (
    BRUTE_FORCE_LIMIT,
    CountTable,
    KERNEL_BACKEND,
    brute_force_count,
    count_partitions,
    count_support,
    count_table,
    finite_coprime_parts,
    pentagonal_table,
)
from partlab import _dpcore_py
from partlab.setspec import (
    ALL_PARTS,
    NAT_MULTS,
    ArithmeticProgression,
    DoublyExponential,
    Finite,
    InvalidSetError,
    Powers,
    WithZero,
    parse_set_spec,
)

PAIRS = [
    (ALL_PARTS, NAT_MULTS),
    (ArithmeticProgression(2, 1), NAT_MULTS),
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
        # Euler's recurrence shares no code with the DP layers; count_table
        # itself answers the classical pair with it, so compare the dense DP
        dense = count_table(500, ALL_PARTS, kernel=_dpcore_py)
        assert dense.values == tuple(pentagonal_table(500))

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
        small = count_table(200, ArithmeticProgression(2, 1)).values
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
        assert [n for n, r in enumerate(t.record_flags) if r] == [0, 2, 3, 4, 5, 6, 8, 9, 10]
        assert all(count_table(30, ALL_PARTS).record_flags)

    def test_is_nondecreasing(self):
        assert count_table(300, ALL_PARTS).nondecreasing_prefix == 301
        assert count_table(10, Finite((2, 3))).nondecreasing_prefix < 11

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
        parts = Finite((3, 2))
        assert finite_coprime_parts(parts, NAT_MULTS) is parts
        assert parts.elements == (2, 3)

    def test_other_settings_give_none(self):
        assert finite_coprime_parts(Finite((2, 4)), NAT_MULTS) is None
        assert finite_coprime_parts(ALL_PARTS, NAT_MULTS) is None
        assert finite_coprime_parts(Finite((2, 3)), Finite((0, 1))) is None

    def test_finite_coprime_is_a_table_fact(self):
        table = count_table(5, Finite((3, 2)))
        assert table.finite_coprime is table.parts
        assert table.parts == Finite((2, 3))
        assert count_table(5, ALL_PARTS).finite_coprime is None


class TestTableObject:
    FACTS = ("prefix_sums", "record_flags", "nondecreasing_prefix", "finite_coprime", "bound_columns")

    def test_each_fact_is_computed_once_per_table(self, monkeypatch):
        calls = []
        for name in self.FACTS:
            fact = vars(counting.CountTable)[name]

            def spy(table, _name=name, _func=fact.func):
                calls.append((_name, id(table)))
                return _func(table)

            monkeypatch.setattr(fact, "func", spy)
        tables = [count_table(30, Finite((2, 3))), count_table(30, Finite((2, 3)))]
        for table in tables:
            for name in self.FACTS:
                assert getattr(table, name) is getattr(table, name)
        assert sorted(calls) == sorted((n, id(t)) for t in tables for n in self.FACTS)

    def test_bound_columns_belong_to_one_table(self):
        a, b = count_table(10, ALL_PARTS), count_table(10, ALL_PARTS)
        a.bound_columns["x"] = [1]
        assert b.bound_columns == {} and a.bound_columns is not b.bound_columns

    def test_a_table_is_immutable_and_equals_only_itself(self):
        table = count_table(10, ALL_PARTS)
        for name in ("parts", "mults", "values", "prefix_sums", "other"):
            with pytest.raises(AttributeError):
                setattr(table, name, ())
        with pytest.raises(AttributeError):
            del table.values
        assert table.values == count_table(10, ALL_PARTS).values
        assert table == table and table != count_table(10, ALL_PARTS)


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
    # the cumulative count r'(n) = p(0) + ... + p(n) is prefix_sums[n]
    def test_examples(self):
        assert count_table(10, Finite((2, 3))).prefix_sums[10] == 14
        assert count_table(0, Finite((2, 3))).prefix_sums[0] == 1
        assert count_table(5, Finite((1,))).prefix_sums[5] == 6

    def test_matches_prefix_sums(self):
        values = count_table(50, Finite((3, 5))).values
        total = 0
        for n in range(51):
            total += values[n]
            assert count_table(n, Finite((3, 5))).prefix_sums[n] == total


class TestKernels:
    def test_backend_reported(self):
        assert KERNEL_BACKEND == "python"

    def test_benchmark_tracer_hooks(self):
        # perfbench/tracer.py labels runs and times the dense layers
        # through these names
        assert partlab.KERNEL_BACKEND == _dpcore_py.BACKEND == "python"
        assert counting._kernel is _dpcore_py
        assert callable(counting._kernel.unbounded_layer)
        assert callable(counting._kernel.restricted_layer)
        for parts, mults in PAIRS:
            dense = count_table(300, parts, mults, kernel=_dpcore_py)
            assert dense.values == count_table(300, parts, mults).values

    def test_benchmark_tracer_lookups(self, monkeypatch, capsys):
        # the tracer rebinds bounds.bound_report and suites.run_suite where
        # they are defined; cli imports those modules inside the commands,
        # so it must read the functions off the modules at call time
        calls = []

        def counting_wrapper(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(bounds, "bound_report", counting_wrapper(bounds.bound_report))
        monkeypatch.setattr(suites, "run_suite", counting_wrapper(suites.run_suite))
        assert cli.main(["table", "--parts", "all", "--upto", "20", "--bounds", "hrr"]) == 0
        assert calls == ["bound_report"] * 21
        assert cli.main(["verify", "--suite", "eq4"]) == 0
        assert calls[21:] == ["run_suite"]
        capsys.readouterr()

    def test_benchmark_bound_hooks(self):
        # perfbench/tracer.py times as bound evaluation the public bounds
        # functions that a registry value's code names (nested lambdas
        # too), reads each interval evaluation's precision off
        # interval_endpoints' second argument, and rebinds these
        # module-level functions
        public = {
            name
            for name, fn in vars(bounds).items()
            if not name.startswith("_") and callable(fn) and not inspect.isclass(fn)
            and getattr(fn, "__module__", None) == bounds.__name__
        }
        for bid, b in bounds.BOUND_REGISTRY.items():
            assert inspect.isfunction(b.value), bid
            names, codes = set(), [b.value.__code__]
            for code in codes:
                names.update(code.co_names)
                codes.extend(c for c in code.co_consts if inspect.iscode(c))
            assert names & public, bid
        second = list(inspect.signature(bounds.interval_endpoints).parameters.values())[1]
        assert second.name == "digits"
        assert second.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for fn in (bounds.certified_leq, bounds.certified_geq, bounds.bound_report):
            assert inspect.isfunction(fn) and fn.__module__ == bounds.__name__
            assert getattr(bounds, fn.__name__) is fn

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


# -- method dispatch: identities, sparse support, dense kernel ---------------

def _naive_restricted(values, offsets):
    """new[v] = old[v] + sum of old[v - off] over offsets off <= v, from two arrays."""
    old = list(values)
    new = list(values)
    for v in range(len(values)):
        for off in offsets:
            if off <= v:
                new[v] += old[v - off]
    return new


def _naive_unbounded(values, a):
    """values[v] += values[v - a] in ascending v, one entry at a time."""
    for v in range(a, len(values)):
        values[v] += values[v - a]


class _NaiveKernel:
    """The plain dense DP one entry at a time: the oracle kernel, sharing no
    code with _dpcore_py."""

    unbounded_layer = staticmethod(_naive_unbounded)

    @staticmethod
    def restricted_layer(values, offsets):
        values[:] = _naive_restricted(values, offsets)


def _pentagonal_per_entry(upto, m=None):
    """q(0..upto) for all parts and multiplicities {0, ..., m-1} (without
    m, p(0..upto)) by Euler's recurrence one entry at a time, every offset
    read separately: the oracle for pentagonal_table's block passes."""
    q = [0] * (upto + 1)
    q[0] = 1
    if m is not None:
        # the seed E(x^m): (-1)^k at m k(3k-1)/2 and m k(3k+1)/2
        k = 1
        while m * k * (3 * k - 1) // 2 <= upto:
            g = m * k * (3 * k - 1) // 2
            q[g] = -1 if k % 2 else 1
            if g + m * k <= upto:
                q[g + m * k] = q[g]
            k += 1
    for n in range(1, upto + 1):
        total = q[n]
        k = 1
        while n - k * (3 * k - 1) // 2 >= 0:
            term = q[n - k * (3 * k - 1) // 2]
            if n - k * (3 * k + 1) // 2 >= 0:
                term += q[n - k * (3 * k + 1) // 2]
            total += term if k % 2 else -term
            k += 1
        q[n] = total
    return q


class TestPentagonalBlocks:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), upto=st.integers(0, 4000))
    def test_blocks_match_the_per_entry_recurrence(self, data, upto):
        m = data.draw(st.one_of(st.none(), st.integers(1, upto + 2)))
        assert pentagonal_table(upto, m) == _pentagonal_per_entry(upto, m)

    # the block width is max(isqrt(upto), 16): each width's first and last
    # sizes, the floor of 16 and widths that do and do not divide the row
    @pytest.mark.parametrize(
        "upto", sorted({w * w + d for w in (4, 15, 16, 17, 31, 45, 63) for d in (-1, 0, 1)})
    )
    @pytest.mark.parametrize("m", [None, 1, 2, 7])
    def test_block_edges(self, upto, m):
        assert pentagonal_table(upto, m) == _pentagonal_per_entry(upto, m)

    def test_small_tables(self):
        for upto in range(40):
            for m in (None, *range(1, upto + 3)):
                assert pentagonal_table(upto, m) == _pentagonal_per_entry(upto, m), (upto, m)

    def test_ten_thousand(self):
        assert pentagonal_table(10**4) == _pentagonal_per_entry(10**4)


_positive_sets = st.one_of(
    st.lists(st.integers(1, 60), min_size=1, max_size=5).map(Finite),
    st.integers(1, 6).map(lambda k: ArithmeticProgression(k, 1)),
    st.builds(ArithmeticProgression, st.integers(1, 9), st.integers(1, 9)),
    st.integers(2, 5).map(Powers),
    st.integers(2, 3).map(DoublyExponential),
    st.lists(st.integers(1, 60), min_size=1, max_size=5).map(
        lambda xs: Finite(tuple(xs), source="anchors.txt")
    ),
)
# {0, ..., m-1}, the multiplicities of Glaisher's identity, in both spellings
_below_m = st.one_of(
    st.integers(1, 8).map(lambda m: Finite(tuple(range(m)))),
    st.integers(2, 8).map(lambda m: WithZero(Finite(tuple(range(1, m))))),
)
_mult_sets = st.one_of(
    _positive_sets.map(WithZero),
    st.lists(st.integers(1, 12), max_size=4).map(lambda xs: Finite((0, *xs))),
    _below_m,
)
# the pairs that a generating-function identity builds without layers
_identity_pairs = st.one_of(
    st.tuples(st.just(ALL_PARTS), _below_m),
    st.tuples(st.integers(2, 5).map(Powers), st.just(NAT_MULTS)),
    st.tuples(st.integers(2, 8).map(lambda k: ArithmeticProgression(k, 1)), st.just(NAT_MULTS)),
)
_pairs = st.one_of(st.tuples(_positive_sets, _mult_sets), _identity_pairs)

# brute force walks every partial multiplicity assignment; keep it to n
# where the counts up to n stay small
_BRUTE_BUDGET = 3000


def _dense(upto, parts, mults):
    return count_table(upto, parts, mults, kernel=_NaiveKernel).values


class TestDispatch:
    @settings(max_examples=150, deadline=None)
    @given(pair=_pairs, upto=st.integers(0, BRUTE_FORCE_LIMIT))
    def test_methods_agree_with_brute_force(self, pair, upto):
        parts, mults = pair
        values = count_table(upto, parts, mults).values
        assert values == _dense(upto, parts, mults)
        total = 0
        for n, v in enumerate(values):
            total += v
            if total > _BRUTE_BUDGET:
                break
            assert v == brute_force_count(n, parts, mults), n

    @settings(max_examples=40, deadline=None)
    @given(pair=_pairs, upto=st.integers(BRUTE_FORCE_LIMIT + 1, 1500))
    def test_methods_agree_beyond_brute_force(self, pair, upto):
        parts, mults = pair
        assert count_table(upto, parts, mults).values == _dense(upto, parts, mults)

    @pytest.mark.parametrize(
        "parts,mults,upto,goes_dense",
        [
            ("dexp:2", "zero|dexp:2", 2**16, False),
            ("anchors", "nat", 2**16, True),
            ("ap:1,2", "zero|finite:1", 1500, True),
            ("finite:7", "zero|finite:1,3,100", 2000, False),
        ],
    )
    def test_sparse_then_dense_matches_oracle(self, monkeypatch, parts, mults, upto, goes_dense):
        parts = (Finite((16, 256, 65536), source="anchors.txt") if parts == "anchors"
                 else parse_set_spec(parts, "parts"))
        mults = parse_set_spec(mults, "mults")
        calls = {"sparse": 0, "dense": 0}

        def spy(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(counting, "_sparse_layer", spy("sparse", counting._sparse_layer))
        for layer in ("unbounded_layer", "restricted_layer"):
            monkeypatch.setattr(counting._kernel, layer, spy("dense", getattr(counting._kernel, layer)))
        values = count_table(upto, parts, mults).values
        assert calls["sparse"] > 0
        assert (calls["dense"] > 0) == goes_dense
        monkeypatch.undo()
        assert values == _dense(upto, parts, mults)

    def test_classical_pair_uses_no_layers(self, monkeypatch):
        monkeypatch.setattr(counting, "_sparse_layer", None)
        monkeypatch.setattr(counting, "_kernel", None)
        assert count_table(300, ALL_PARTS).values == tuple(pentagonal_table(300))

    @pytest.mark.parametrize(
        "parts,mults,upto",
        [
            # Mahler: F(x) = F(x^B) / (1 - x)
            ("pow:2", "nat", 3000),
            ("pow:3", "nat", 2000),
            ("pow:7", "nat", 700),
            # the pentagonal table with the parts below s removed
            ("all-from:2", "nat", 600),
            ("all-from:5", "nat", 400),
            # ap:K,1 is all-from:K, so it takes the same path down to 2K = upto + 2
            *((f"ap:{k},1", "nat", upto) for k in range(1, 7) for upto in (2 * k - 2, 300)),
            # Glaisher: P(x) E(x^m), both spellings of {0, ..., m-1}
            ("all", "finite:0,1", 800),
            ("all", "zero|finite:1", 800),
            ("all", "finite:0,1,2,3", 500),
            ("all", "zero|finite:1,2,3", 500),
            ("all", "finite:0", 50),
            # {0, 1, 2, 5} meets [0, 4] in {0, 1, 2}
            ("all", "finite:0,1,2,5", 4),
        ],
    )
    def test_identity_paths_use_no_layers(self, monkeypatch, parts, mults, upto):
        parts = parse_set_spec(parts, "parts")
        mults = parse_set_spec(mults, "mults")
        expected = _dense(upto, parts, mults)
        calls = []

        def spy(*args):
            calls.append(args)

        monkeypatch.setattr(counting, "_sparse_layer", spy)
        for layer in ("unbounded_layer", "restricted_layer"):
            monkeypatch.setattr(counting._kernel, layer, spy)
        values = count_table(upto, parts, mults).values
        assert calls == []
        assert values == expected

    @pytest.mark.parametrize(
        "parts,mults,upto",
        [
            # {0, 1, 2, 5} reaches 5 below upto: restricted layers, not Glaisher
            ("all", "finite:0,1,2,5", 60),
            # all-from:s with s - 1 removal passes above the layer count
            ("all-from:40", "nat", 60),
        ],
    )
    def test_pairs_outside_the_identities_use_layers(self, monkeypatch, parts, mults, upto):
        parts = parse_set_spec(parts, "parts")
        mults = parse_set_spec(mults, "mults")
        calls = []

        def spy(fn):
            def wrapper(*args):
                calls.append(fn)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(counting, "_sparse_layer", spy(counting._sparse_layer))
        values = count_table(upto, parts, mults).values
        assert calls
        monkeypatch.undo()
        assert values == _dense(upto, parts, mults)

    def test_explicit_kernel_runs_every_layer_dense(self, monkeypatch):
        parts, mults = DoublyExponential(2), WithZero(DoublyExponential(2))
        expected = count_table(2**12, parts, mults).values
        monkeypatch.setattr(counting, "_sparse_layer", None)
        assert count_table(2**12, parts, mults, kernel=_dpcore_py).values == expected


class TestPythonKernel:
    ROW = [1, 0, 3, 10**30, 7, 0, 0, 2, 5, 11, 4]

    @pytest.mark.parametrize(
        "offsets",
        [[1], [4], [10], [2, 5], [1, 2, 3], [3, 6, 9], [11], [10, 11, 40], [4, 50]],
        ids=str,
    )
    def test_restricted_layer_matches_two_array_reference(self, offsets):
        values = list(self.ROW)
        _dpcore_py.restricted_layer(values, offsets)
        assert values == _naive_restricted(self.ROW, offsets)

    @settings(max_examples=80, deadline=None)
    @given(
        row=st.lists(st.integers(0, 10**40), min_size=1, max_size=60),
        offsets=st.lists(st.integers(1, 70), min_size=1, max_size=6, unique=True).map(sorted),
    )
    def test_restricted_layer_generated(self, row, offsets):
        values = list(row)
        _dpcore_py.restricted_layer(values, offsets)
        assert values == _naive_restricted(row, offsets)

    def test_unbounded_layer_is_all_multiples(self):
        values = list(self.ROW)
        _dpcore_py.unbounded_layer(values, 3)
        assert values == _naive_restricted(self.ROW, range(3, len(self.ROW), 3))

    @settings(max_examples=80, deadline=None)
    @given(
        row=st.lists(st.integers(0, 10**40), max_size=80),
        a=st.integers(1, 90),
        chunk=st.sampled_from([1, 2, 3, 5, _dpcore_py.CHUNK]),
    )
    def test_unbounded_layer_generated(self, row, a, chunk):
        # short windows put window edges inside rows of a few dozen entries;
        # a * a against len(row) picks residue passes or block passes
        values = list(row)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_dpcore_py, "CHUNK", chunk)
            _dpcore_py.unbounded_layer(values, a)
        expected = list(row)
        _naive_unbounded(expected, a)
        assert values == expected

    @pytest.mark.parametrize("a", [1, 2, 3, 64, 65, 200])
    def test_unbounded_layer_across_windows(self, a):
        # more than two windows of a * CHUNK indices for the residue passes
        row = [(v * 7919) % 1000 for v in range(3 * 64 * _dpcore_py.CHUNK + 17)]
        values = list(row)
        _dpcore_py.unbounded_layer(values, a)
        _naive_unbounded(row, a)
        assert values == row


# -- one value: count_partitions without the row p(0..n) ---------------------

def _upto_calls(monkeypatch):
    """Record the upto of every table count_partitions asks count_support
    for, directly or through count_table."""
    calls = []
    original = counting.count_support

    def spy(upto, *args, **kwargs):
        calls.append(upto)
        return original(upto, *args, **kwargs)

    monkeypatch.setattr(counting, "count_support", spy)
    return calls


def _layer_rows(monkeypatch):
    """Record the row length of every dense layer that runs."""
    rows = []
    for layer in ("unbounded_layer", "restricted_layer"):
        original = getattr(counting._kernel, layer)

        def spy(values, arg, original=original):
            rows.append(len(values))
            return original(values, arg)

        monkeypatch.setattr(counting._kernel, layer, spy)
    return rows


def _k_lcm(parts):
    elements = parts.elements
    return len(elements), math.lcm(*elements)


# 1-4 elements <= 12; duplicates collapse and gcd > 1 sets (finite:4,6) occur
_small_finite = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(Finite)


class TestOneValue:
    @settings(max_examples=60, deadline=None)
    @given(parts=_small_finite, past=st.integers(0, 300))
    def test_quasi_polynomial_matches_dense_dp(self, parts, past):
        k, lcm = _k_lcm(parts)
        n = k * lcm + past
        with pytest.MonkeyPatch.context() as mp:
            calls = _upto_calls(mp)
            value = count_partitions(n, parts)
        assert calls and max(calls) < k * lcm
        assert value == _dense(n, parts, NAT_MULTS)[n]

    @pytest.mark.parametrize(
        "spec", ["finite:3,4,5", "finite:4,6", "finite:2,3", "finite:5", "finite:1", "finite:6,10,15"]
    )
    def test_quasi_polynomial_starts_at_k_lcm(self, monkeypatch, spec):
        parts = parse_set_spec(spec, "parts")
        k, lcm = _k_lcm(parts)
        expected = _dense(k * lcm + 2 * lcm, parts, NAT_MULTS)
        calls = _upto_calls(monkeypatch)
        # below k * lcm the row is read; from k * lcm on, a row below it
        assert count_partitions(k * lcm - 1, parts) == expected[k * lcm - 1]
        assert calls == [k * lcm - 1]
        for n in range(k * lcm, len(expected)):
            del calls[:]
            assert count_partitions(n, parts) == expected[n], n
            assert calls == [n % lcm + (k - 1) * lcm], n

    def test_single_part_counts_multiples(self):
        for a in (1, 2, 7):
            for n in range(200):
                assert count_partitions(n, Finite((a,))) == (n % a == 0), (a, n)

    @pytest.mark.parametrize("base", [2, 3, 4, 5])
    def test_mahler_sum_matches_dense_dp(self, monkeypatch, base):
        parts = Powers(base)
        expected = _dense(5000, parts, NAT_MULTS)
        calls = _upto_calls(monkeypatch)
        edges = [0, 1, base - 1, base, base * base - 1, base * base, base * base + 1]
        for n in [*edges, *range(4900, 5001)]:
            del calls[:]
            assert count_partitions(n, parts) == expected[n], n
            assert calls == [n // (base * base)], n

    @settings(max_examples=40, deadline=None)
    @given(base=st.integers(2, 5), n=st.integers(0, 5000))
    def test_mahler_sum_generated(self, base, n):
        assert count_partitions(n, Powers(base)) == _dense(n, Powers(base), NAT_MULTS)[n]

    @pytest.mark.parametrize(
        "parts,mults,n,goes_dense",
        [
            ("dexp:2", "zero|dexp:2", 2**16, False),
            ("dexp:3", "zero|dexp:2", 3000, False),
            ("finite:7", "zero|finite:1,3,100", 2000, False),
            ("finite:16,256,4096", "zero|finite:1,2", 5000, False),
            ("ap:1,2", "zero|finite:1", 1500, True),
            ("ap:3,4", "zero|ap:1,2", 800, True),
            ("finite:16,256,4096", "zero|ap:1,2", 5000, True),
        ],
    )
    def test_thin_pairs_match_dense_dp(self, monkeypatch, parts, mults, n, goes_dense):
        parts = parse_set_spec(parts, "parts")
        mults = parse_set_spec(mults, "mults")
        expected = _dense(n, parts, mults)
        rows = _layer_rows(monkeypatch)
        assert count_partitions(n, parts, mults) == expected[n]
        assert bool(rows) == goes_dense
        for m in (n - 1, n // 2, n // 3 + 1):
            assert count_partitions(m, parts, mults) == _dense(m, parts, mults)[m], m

    @settings(max_examples=80, deadline=None)
    @given(pair=_pairs, n=st.integers(0, BRUTE_FORCE_LIMIT))
    def test_routes_agree_with_brute_force(self, pair, n):
        parts, mults = pair
        value, dense = count_partitions(n, parts, mults), _dense(n, parts, mults)
        assert value == dense[n]
        if sum(dense) <= _BRUTE_BUDGET:
            assert value == brute_force_count(n, parts, mults)

    @settings(max_examples=40, deadline=None)
    @given(pair=_pairs, n=st.integers(BRUTE_FORCE_LIMIT + 1, 1500))
    def test_routes_agree_beyond_brute_force(self, pair, n):
        parts, mults = pair
        assert count_partitions(n, parts, mults) == _dense(n, parts, mults)[n]

    @settings(max_examples=30, deadline=None)
    @given(parts=_small_finite, n=st.integers(0, BRUTE_FORCE_LIMIT))
    def test_small_finite_sets_agree_with_brute_force(self, parts, n):
        assert count_partitions(n, parts) == brute_force_count(n, parts)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_partitions(-1, Finite((2, 3)))
        with pytest.raises(InvalidSetError):
            count_partitions(5, Finite((0, 3)))
        with pytest.raises(InvalidSetError):
            count_partitions(5, ALL_PARTS, Finite((1, 2)))


class TestOneValueReachesNoRow:
    # the count-sweep pairs at their large sizes: the value comes from a row
    # no longer than k * lcm (finite) or n // B^2 (powers), or from the sparse
    # support alone, and no dense layer runs over anything longer
    def test_finite_set(self, monkeypatch):
        calls, rows = _upto_calls(monkeypatch), _layer_rows(monkeypatch)
        parts = parse_set_spec("finite:3,4,5", "parts")
        assert count_partitions(10**6, parts) == 8333433334
        k, lcm = _k_lcm(parts)
        assert calls and max(calls) < k * lcm
        assert max(rows) <= k * lcm

    def test_powers(self, monkeypatch):
        calls, rows = _upto_calls(monkeypatch), _layer_rows(monkeypatch)
        value = count_partitions(2**19, Powers(2))
        assert value == 101392461429231061564340795961720445642
        assert calls == [2**19 // 4]
        assert rows == []

    def test_thin_pair(self, monkeypatch):
        calls, rows = _upto_calls(monkeypatch), _layer_rows(monkeypatch)
        monkeypatch.setattr(counting, "_row", None)
        parts = parse_set_spec("dexp:2", "parts")
        mults = parse_set_spec("zero|dexp:2", "mults")
        assert count_partitions(2**20, parts, mults) == 2
        assert calls == [2**20] and rows == []


# -- the support builder: a thin pair's nonzero entries, or the table --------

# parts and zero| multiplicities that are sparse enough for some upto: powers
# and doubly exponential sets, and finite sets that may turn dense
_thin_parts = st.one_of(
    st.integers(2, 3).map(DoublyExponential),
    st.integers(2, 5).map(Powers),
    st.lists(st.integers(1, 3000), min_size=1, max_size=4).map(Finite),
)
_thin_mults = st.one_of(
    st.integers(2, 3).map(DoublyExponential),
    st.integers(2, 5).map(Powers),
    st.lists(st.integers(1, 60), min_size=1, max_size=3).map(Finite),
).map(WithZero)


def _spread(support, upto):
    """The row p(0..upto) of a support, built without counting._row."""
    return tuple(support.get(n, 0) for n in range(upto + 1))


class TestSupport:
    @settings(max_examples=120, deadline=None)
    @given(parts=_thin_parts, mults=_thin_mults, upto=st.integers(0, 3000))
    def test_thin_pairs_match_dense_dp(self, parts, mults, upto):
        result = count_support(upto, parts, mults)
        expected = _dense(upto, parts, mults)
        if isinstance(result, dict):
            assert result[0] == 1 and all(result.values())
            assert max(result) <= upto
            assert _spread(result, upto) == expected
        else:
            assert result.values == expected
        assert count_table(upto, parts, mults).values == expected

    @settings(max_examples=120, deadline=None)
    @given(parts=_thin_parts, mults=_thin_mults, upto=st.integers(0, BRUTE_FORCE_LIMIT))
    def test_thin_pairs_match_brute_force(self, parts, mults, upto):
        result = count_support(upto, parts, mults)
        values = _spread(result, upto) if isinstance(result, dict) else result.values
        total = 0
        for n, v in enumerate(values):
            total += v
            if total > _BRUTE_BUDGET:
                break
            assert v == brute_force_count(n, parts, mults), n

    @pytest.mark.parametrize(
        "parts,mults,upto,thin",
        [
            ("dexp:2", "zero|dexp:2", 2**20, True),
            ("finite:7", "zero|finite:1,3,100", 2000, True),
            ("finite:16,256,4096", "zero|finite:1,2", 5000, True),
            # a layer turns dense: the table, its rest built on the row
            ("dexp:2", "nat", 5000, False),
            ("ap:1,2", "zero|finite:1", 1500, False),
            ("finite:16,256,4096", "zero|ap:1,2", 5000, False),
            # an identity covers the pair: its table, with no layer
            ("all", "nat", 300, False),
            ("all", "zero|finite:1", 300, False),
            ("pow:2", "nat", 3000, False),
            ("all-from:3", "nat", 300, False),
        ],
    )
    def test_support_or_table_built_once(self, monkeypatch, parts, mults, upto, thin):
        parts = parse_set_spec(parts, "parts")
        mults = parse_set_spec(mults, "mults")
        layers = []

        def spy(*args, original=counting._layers):
            layers.append(args)
            return original(*args)

        monkeypatch.setattr(counting, "_layers", spy)
        if thin:
            monkeypatch.setattr(counting, "_row", None)
        result = count_support(upto, parts, mults)
        assert isinstance(result, dict) == thin
        assert len(layers) <= 1
        monkeypatch.undo()
        expected = count_table(upto, parts, mults)
        if thin:
            assert _spread(result, upto) == expected.values
        else:
            assert isinstance(result, CountTable) and result.values == expected.values
            assert (result.parts, result.mults) == (parts, mults)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_support(-1, DoublyExponential(2), WithZero(Powers(2)))
        with pytest.raises(InvalidSetError):
            count_support(5, Finite((0, 3)), WithZero(Powers(2)))
