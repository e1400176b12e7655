"""DP counting engine against independent oracles and structural laws."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partlab
from partlab import bounds, cli, counting, suites
from partlab.arith import FiniteCoprimeSet
from partlab.counting import (
    BRUTE_FORCE_LIMIT,
    KERNEL_BACKEND,
    brute_force_count,
    count_partitions,
    count_table,
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

    def test_finite_coprime_is_a_table_fact(self):
        assert count_table(5, Finite((3, 2))).finite_coprime == FiniteCoprimeSet((2, 3))
        assert count_table(5, ALL_PARTS).finite_coprime is None


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


_positive_sets = st.one_of(
    st.lists(st.integers(1, 60), min_size=1, max_size=5).map(Finite),
    st.integers(1, 6).map(AllFrom),
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
    st.tuples(st.integers(2, 8).map(AllFrom), st.just(NAT_MULTS)),
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
