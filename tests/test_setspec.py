"""Set-spec variants, the mini-language parser, and sparse construction."""

import copy
import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab import setspec
from partlab.corpus import CORPUS, CORPUS_BY_LABEL
from partlab.setspec import (
    ALL_PARTS,
    NAT_MULTS,
    ArithmeticProgression,
    DoublyExponential,
    Finite,
    InvalidSetError,
    Powers,
    SpecSyntaxError,
    WithZero,
    construct_sparse_set,
    parse_natural,
    parse_set_spec,
    step_function_value,
    validate_step_table,
)

VARIANTS = [
    Finite((0, 4, 9)),
    Finite((3, 5)),
    ArithmeticProgression(1, 1),
    ArithmeticProgression(7, 1),
    ArithmeticProgression(3, 4),
    Powers(2),
    Powers(3),
    DoublyExponential(2),
    WithZero(DoublyExponential(2)),
    WithZero(ArithmeticProgression(1, 1)),
    Finite((16, 256, 65536), source="anchors.txt"),
]


# The words, numbers and separators of the spec language, plus a stray
# letter and a non-ASCII digit.  A "sparse:@" path built from them names no
# file, so it is rejected as unreadable.
SPEC_FORMS = ("all", "all-from:", "finite:", "ap:", "pow:", "dexp:", "nat", "zero|", "sparse:@")
SPEC_TOKENS = SPEC_FORMS + (",", ":", "|", "-", "0", "1", "2", "3", "10", "65536", "x", "\u0663")
_NUMBERS = st.integers(0, 70000).map(str)
# Strings over the vocabulary: token soup, and zero| prefixes on a form
# followed by a number list, which parse far more often.
SPEC_TEXTS = st.one_of(
    st.lists(st.sampled_from(SPEC_TOKENS) | _NUMBERS, max_size=8).map("".join),
    st.tuples(
        st.sampled_from(["", "zero|", "zero|zero|"]),
        st.sampled_from(SPEC_FORMS),
        st.lists(_NUMBERS, max_size=3).map(",".join),
    ).map("".join),
)


class TestCountLeq:
    def test_powers_of_two(self):
        assert Powers(2).count_leq(Fraction(10)) == 4  # {1, 2, 4, 8}

    def test_doubly_exponential_with_zero(self):
        assert WithZero(DoublyExponential(2)).count_leq(Fraction(16)) == 4

    def test_finite_below_min(self):
        assert Finite((3, 5)).count_leq(Fraction(7, 3)) == 0

    def test_rational_threshold_never_rounds(self):
        # 5/2 separates 2 from 3 exactly
        s = ArithmeticProgression(1, 1)
        assert s.count_leq(Fraction(5, 2)) == 2
        assert s.count_leq(Fraction(3)) == 3

    @pytest.mark.parametrize("spec", VARIANTS, ids=str)
    @pytest.mark.parametrize("bound", [0, 1, 2, 7, 16, 100, 65536])
    def test_matches_enumeration(self, spec, bound):
        elems = spec.elements_upto(bound)
        assert spec.count_leq(Fraction(bound)) == len(elems)
        assert elems == sorted(set(elems))

    @pytest.mark.parametrize("spec", VARIANTS, ids=str)
    def test_nondecreasing_in_x(self, spec):
        counts = [spec.count_leq(Fraction(x, 2)) for x in range(0, 60)]
        assert counts == sorted(counts)


class TestElementsUpto:
    def test_doubly_exponential(self):
        assert DoublyExponential(2).elements_upto(300) == [2, 4, 16, 256]

    def test_all_from(self):
        assert ArithmeticProgression(1, 1).elements_upto(4) == [1, 2, 3, 4]

    def test_empty(self):
        assert Finite((3, 5)).elements_upto(2) == []


class TestFiniteElements:
    def test_increasing_int_tuple_is_kept(self):
        # a checked anchors file is not copied, sorted or de-duplicated again
        elems = tuple(range(10**6, 10**6 + 1000, 3))
        assert Finite(elems).elements is elems

    def test_normalizes(self):
        spec = Finite((5, 3, 3))
        assert spec.elements == (3, 5)
        assert len(spec.elements) == 2
        assert math.prod(spec.elements) == 15

    @pytest.mark.parametrize(
        "given,kept",
        [([2, 3], (2, 3)), ((3, 2), (2, 3)), ((2, 2, 3), (2, 3)), ((True, 3), (1, 3))],
    )
    def test_anything_else_is_sorted_and_deduplicated(self, given, kept):
        elements = Finite(given).elements
        assert elements == kept and elements is not given
        assert all(type(e) is int for e in elements)

    def test_checks_hold_on_either_path(self):
        for elems in [(), (-1, 2), (2, -1), [-1]]:
            with pytest.raises(InvalidSetError):
                Finite(elems)


class TestValidation:
    def test_finite_empty(self):
        with pytest.raises(InvalidSetError):
            Finite(())

    def test_base_too_small(self):
        with pytest.raises(InvalidSetError):
            Powers(1)
        with pytest.raises(InvalidSetError):
            DoublyExponential(1)

    def test_with_zero_rejects_zero_inner(self):
        with pytest.raises(InvalidSetError):
            WithZero(Finite((0, 2)))

    def test_sparse_anchors_must_increase(self, tmp_path):
        # Finite sorts and merges its elements; a file must list them so
        for text in ("16\n16\n", "256\n16\n", "0\n16\n"):
            path = tmp_path / "anchors.txt"
            path.write_text(text)
            with pytest.raises(InvalidSetError, match="strictly increasing"):
                parse_set_spec(f"sparse:@{path}", "parts")

    def test_sparse_source_excluded_from_equality(self):
        a = Finite((2, 5), source="a.txt")
        b = Finite((2, 5), source="b.txt")
        assert a == b == Finite((2, 5))
        assert hash(a) == hash(Finite((2, 5)))
        assert a.spec_string() == "sparse:@a.txt"
        assert repr(a) == "Finite((2, 5))"

    # every message a constructor raises, whichever way it is called
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Finite(()), "finite set must be nonempty"),
            (lambda: Finite(elements=[3, -1]), "set elements must be nonnegative"),
            (lambda: ArithmeticProgression(0, 1), "progression first and step must be positive"),
            (lambda: ArithmeticProgression(first=1, step=0), "progression first and step must be positive"),
            (lambda: Powers(1), "power base must be at least 2"),
            (lambda: DoublyExponential(base=0), "power base must be at least 2"),
            (lambda: WithZero(inner=Finite((0, 2))), "inner set of zero| already contains 0"),
        ],
    )
    def test_constructor_messages(self, build, message):
        with pytest.raises(InvalidSetError) as info:
            build()
        assert str(info.value) == message


_PART_SPECS = st.one_of(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=5).map(Finite),
    st.builds(ArithmeticProgression, st.integers(1, 40), st.integers(1, 40)),
    st.builds(Powers, st.integers(2, 40)),
    st.builds(DoublyExponential, st.integers(2, 40)),
)
_MULT_SPECS = st.one_of(
    _PART_SPECS.map(WithZero),
    st.lists(st.integers(0, 10**6), max_size=5).map(lambda e: Finite([0, *e])),
)
# (spec, kind) over every kind of spec; none has a source, so each prints
# as the text that parses back to it
SPECS = st.one_of(
    _PART_SPECS.map(lambda s: (s, "parts")), _MULT_SPECS.map(lambda s: (s, "mults"))
)


class TestValueSemantics:
    """Specs compare and hash by class and fields, print as Kind(fields),
    and cannot be changed once built."""

    @settings(max_examples=300, deadline=None)
    @given(a=SPECS, b=SPECS)
    def test_equal_specs_are_the_ones_with_one_text(self, a, b):
        (a, kind), (b, _) = a, b
        parsed = parse_set_spec(str(a), kind)
        assert parsed == a and hash(parsed) == hash(a)
        assert (a == b) == (str(a) == str(b))
        if a == b:
            assert hash(a) == hash(b)
        if isinstance(a, Finite):
            with_source = Finite(a.elements, source="anchors.txt")
            assert with_source == a and hash(with_source) == hash(a)

    def test_kind_is_part_of_equality(self):
        assert Powers(2) != DoublyExponential(2)
        assert hash(ArithmeticProgression(1, 1)) == hash(ALL_PARTS)
        assert ArithmeticProgression(1, 1) == ALL_PARTS
        assert Finite((2,)) != Powers(2) and Finite((2,)) != (2,)

    def test_repr_is_kind_and_fields(self):
        assert repr(NAT_MULTS) == "WithZero(ArithmeticProgression(1, 1))"
        assert repr(Finite([5, 3])) == "Finite((3, 5))"
        assert repr(DoublyExponential(3)) == "DoublyExponential(3)"

    @pytest.mark.parametrize("spec", VARIANTS, ids=str)
    def test_fields_cannot_be_assigned(self, spec):
        fields = type(spec).__slots__
        before = [getattr(spec, name) for name in fields]
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 1)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(spec, name)
        assert [getattr(spec, name) for name in fields] == before

    @pytest.mark.parametrize("spec", VARIANTS, ids=str)
    def test_copy_and_pickle_keep_every_field(self, spec):
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and str(twin) == str(spec) and type(twin) is type(spec)

    def test_keyword_construction(self):
        assert Finite(elements=(3, 2), source="a.txt") == Finite((2, 3))
        assert Finite(elements=(3, 2), source="a.txt").source == "a.txt"
        assert ArithmeticProgression(first=3, step=4) == ArithmeticProgression(3, 4)
        assert Powers(base=2) == Powers(2)
        assert DoublyExponential(base=2) == DoublyExponential(2)
        assert WithZero(inner=Powers(2)) == WithZero(Powers(2))


class TestParser:
    def test_finite_parts(self):
        assert parse_set_spec("finite:3,5", "parts") == Finite((3, 5))

    def test_with_zero_dexp(self):
        spec = parse_set_spec("zero|dexp:2", "mults")
        assert spec == WithZero(DoublyExponential(2))
        assert spec.elements_upto(256) == [0, 2, 4, 16, 256]

    def test_mults_need_zero(self):
        with pytest.raises(InvalidSetError):
            parse_set_spec("finite:3,5", "mults")

    def test_parts_reject_zero(self):
        with pytest.raises(InvalidSetError):
            parse_set_spec("finite:0,3", "parts")

    def test_nat_keyword(self):
        assert parse_set_spec("nat", "mults") == NAT_MULTS

    def test_zero_in_finite_mults_allowed(self):
        assert parse_set_spec("finite:0,1", "mults") == Finite((0, 1))

    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as info:
            parse_set_spec("finite:3,,5", "parts")
        assert info.value.position == 9

    def test_trailing_garbage(self):
        with pytest.raises(SpecSyntaxError):
            parse_set_spec("all junk", "parts")

    def test_unknown_form(self):
        with pytest.raises(SpecSyntaxError):
            parse_set_spec("weird:1", "parts")

    def test_ap_needs_two_fields(self):
        with pytest.raises(SpecSyntaxError):
            parse_set_spec("ap:3", "parts")

    @pytest.mark.parametrize("text", ["finite:\u00b2", "finite:\u0663,4"])
    def test_non_ascii_digits_rejected(self, text):
        # superscript two and Arabic-Indic three pass str.isdigit
        with pytest.raises(SpecSyntaxError) as info:
            parse_set_spec(text, "parts")
        assert info.value.position == 7

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("all", "parts"),
            ("all-from:2", "parts"),
            ("finite:1,2,3", "parts"),
            ("ap:3,4", "parts"),
            ("pow:2", "parts"),
            ("dexp:2", "parts"),
            ("nat", "mults"),
            ("zero|pow:2", "mults"),
            ("zero|ap:1,2", "mults"),
            ("finite:0,1", "mults"),
        ],
    )
    def test_print_parse_round_trip(self, text, kind):
        spec = parse_set_spec(text, kind)
        assert parse_set_spec(spec.spec_string(), kind) == spec

    @settings(max_examples=400, deadline=None)
    @given(
        text=SPEC_TEXTS,
        kind=st.sampled_from(["parts", "mults"]),
    )
    def test_every_string_round_trips_or_is_rejected(self, text, kind):
        try:
            spec = parse_set_spec(text, kind)
        except (SpecSyntaxError, InvalidSetError):
            return
        assert parse_set_spec(spec.spec_string(), kind) == spec

    def test_sparse_round_trip(self, tmp_path):
        path = tmp_path / "anchors.txt"
        path.write_text("16\n256\n65536\n")
        spec = parse_set_spec(f"sparse:@{path}", "parts")
        assert spec == Finite((16, 256, 65536))
        assert spec.spec_string() == f"sparse:@{path}"
        assert parse_set_spec(spec.spec_string(), "parts") == spec

    def test_sparse_missing_file(self, tmp_path):
        with pytest.raises(InvalidSetError):
            parse_set_spec(f"sparse:@{tmp_path}/nope.txt", "parts")

    @pytest.mark.parametrize(
        "line",
        ["\u0661\u0666", "1_6", "+16", "-16", "16.0", "0x10",
         pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_anchor_lines_take_ascii_digits_only(self, tmp_path, line):
        # the spec language's rule: finite:\u0661\u0666 is a syntax error too
        path = tmp_path / "anchors.txt"
        path.write_text(f"2\n{line}\n", encoding="utf-8")
        with pytest.raises(InvalidSetError, match="one integer per line"):
            parse_set_spec(f"sparse:@{path}", "parts")

    def test_empty_anchors_file(self, tmp_path):
        path = tmp_path / "anchors.txt"
        path.write_text("\n")
        with pytest.raises(InvalidSetError, match="nonempty"):
            parse_set_spec(f"sparse:@{path}", "parts")

    @pytest.mark.parametrize("text,value", [("0", 0), ("10", 10), ("007", 7)])
    def test_parse_natural(self, text, value):
        assert parse_natural(text) == value

    @pytest.mark.parametrize("prefix", ["", "finite:", "finite:2,", "ap:1,"])
    def test_integer_past_the_conversion_limit_is_a_syntax_error(self, prefix):
        # int() refuses more than 4300 digits; the parser says where the run starts
        text = prefix + "9" * 5000
        parse = parse_natural if not prefix else lambda t: parse_set_spec(t, "parts")
        with pytest.raises(SpecSyntaxError, match="5000 digits") as info:
            parse(text)
        assert info.value.position == len(prefix)


class TestDoublyExponentialCounting:
    def test_with_zero_formula(self):
        # two more than floor(lg lg x) at every x >= 2; floor(lg lg x)
        # equals floor(lg floor(lg x)), so bit lengths keep this exact
        spec = WithZero(DoublyExponential(2))
        for x in range(2, 70000):
            lg = x.bit_length() - 1
            expected = 2 + (lg.bit_length() - 1)
            assert spec.count_leq(x) == expected, x


def _anchors_by_search(epsilon):
    """Each anchor from its own search of the table from the first entry:
    the threshold of the first entry whose value reaches the target A + 2,
    or the anchor before it plus 1."""
    validate_step_table(epsilon)
    anchors = []
    prev = 0
    while True:
        target = len(anchors) + 2
        hit = next((t for t, v in epsilon if v >= target), None)
        if hit is None:
            break
        prev = max(prev + 1, hit)
        anchors.append(prev)
    if not anchors:
        raise InvalidSetError("epsilon table never reaches 2; no anchors exist")
    return tuple(anchors)


def _value_by_scan(table, x):
    """The value of the last entry whose threshold is at most x."""
    return ([None] + [v for t, v in table if t <= x])[-1]


def _outcome(build, table):
    try:
        return build(table)
    except InvalidSetError as exc:
        return str(exc)


# Step tables as lists of (threshold, value): valid ones, with strictly
# increasing positive thresholds and nondecreasing values, which reach 2
# or not; and any pairs, which mostly fail validation
_PAIRS = st.tuples(st.integers(0, 200), st.integers(0, 30))
_VALID_TABLES = st.lists(_PAIRS, min_size=1, max_size=12).map(
    lambda pairs: list(zip(sorted({t + 1 for t, _ in pairs}), sorted(v for _, v in pairs)))
)
_STEP_TABLES = _VALID_TABLES | st.lists(_PAIRS, max_size=12)


class TestSparseConstruction:
    @settings(max_examples=300, deadline=None)
    @given(_STEP_TABLES)
    def test_one_pass_matches_a_search_per_anchor(self, table):
        assert _outcome(lambda t: construct_sparse_set(t).elements, table) == _outcome(
            _anchors_by_search, table
        )

    @settings(max_examples=100, deadline=None)
    @given(_VALID_TABLES)
    def test_step_value_matches_a_scan(self, table):
        for x in {-2, *(t + d for t, _ in table for d in (-1, 0, 1)), table[-1][0] + 9}:
            assert step_function_value(table, x) == _value_by_scan(table, x), x

    def test_anchor_count_is_refused_before_any_anchor(self, monkeypatch):
        # 2^21 anchors, as many as an anchors file at the read cap holds, are
        # built; one more is refused without a set, in a small fraction of
        # that time
        most = setspec.MAX_FILE_BYTES // 8
        assert most == 2**21
        start = time.perf_counter()
        assert len(construct_sparse_set([(5, 2), (9, most + 1)]).elements) == most
        built_s = time.perf_counter() - start
        monkeypatch.setattr(setspec, "Finite", lambda *a, **k: pytest.fail("a set was made"))
        for table in ([(5, 2), (9, most + 2)], [(1, 10**9)]):
            refusal = f"epsilon table asks for {table[-1][1] - 1} anchors; at most {most}"
            start = time.perf_counter()
            with pytest.raises(InvalidSetError, match=f"^{refusal}$"):
                construct_sparse_set(table)
            assert time.perf_counter() - start < built_s / 100

    def test_identity_epsilon(self):
        # anchor i is the first x with epsilon(x) >= i + 1, so the identity
        # table over 1..8 yields one anchor per target 2..8
        sset = construct_sparse_set([(i, i) for i in range(1, 9)])
        assert sset.elements == (2, 3, 4, 5, 6, 7, 8)

    def test_builtin_table(self):
        sset = construct_sparse_set([(4, 1), (16, 2), (256, 3), (65536, 4)])
        assert sset.elements == (16, 256, 65536)

    def test_counting_gap_invariant(self):
        table = [(4, 1), (16, 2), (256, 3), (65536, 4)]
        sset = construct_sparse_set(table)
        for n in range(sset.elements[0], 65537):
            assert sset.count_leq(n) + 1 <= step_function_value(table, n)

    def test_empty_table(self):
        with pytest.raises(InvalidSetError):
            construct_sparse_set([])

    def test_never_reaches_two(self):
        with pytest.raises(InvalidSetError):
            construct_sparse_set([(4, 1), (100, 1)])

    def test_table_validation(self):
        with pytest.raises(InvalidSetError):
            validate_step_table([(16, 2), (4, 1)])
        with pytest.raises(InvalidSetError):
            validate_step_table([(4, 2), (16, 1)])


class TestSpecStrings:
    def test_canonical_forms(self):
        assert str(ALL_PARTS) == "all"
        assert str(NAT_MULTS) == "nat"
        assert str(ArithmeticProgression(2, 1)) == "all-from:2"
        assert str(WithZero(Powers(2))) == "zero|pow:2"

    @pytest.mark.parametrize("k", range(1, 7))
    def test_step_one_progression_is_all_from(self, k):
        # one set, one spec: ap:K,1 is all-from:K, and both print as it
        ap, all_from = parse_set_spec(f"ap:{k},1", "parts"), parse_set_spec(f"all-from:{k}", "parts")
        assert ap == all_from and hash(ap) == hash(all_from)
        assert str(ap) == str(all_from) == ("all" if k == 1 else f"all-from:{k}")

    def test_zero_with_step_one_progression_is_nat(self):
        assert parse_set_spec("zero|ap:1,1", "mults") == NAT_MULTS
        assert str(parse_set_spec("zero|all-from:1", "mults")) == "nat"

    def test_str_is_total_on_corpus(self):
        # every set prints as a spec that parses back to it, the text that
        # suite failure records carry
        for pair in CORPUS:
            for spec, kind in ((pair.parts, "parts"), (pair.mults, "mults")):
                assert str(spec) == spec.spec_string()
                assert parse_set_spec(str(spec), kind) == spec
        # a sparse set built in memory has no file and prints as finite:
        assert str(CORPUS_BY_LABEL["sparse-parts"].parts) == "finite:16,256,65536"
        assert str(construct_sparse_set([(5, 2), (2 * 10**9, 3)])) == "finite:5,2000000000"
        assert str(construct_sparse_set([(5, 2)], source="a.txt")) == "sparse:@a.txt"
