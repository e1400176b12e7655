"""Structured integer-set specifications for parts and multiplicities.

A partition problem here is a pair of integer sets: the allowed parts S
(positive integers) and the allowed multiplicities M (nonnegative
integers, always containing 0 so that a part may be omitted).  Both are
described by small structured specs that enumerate lazily in increasing
order, so infinite sets are first-class.

Spec mini-language (ASCII, no whitespace):

    all            every positive integer, ap:1,1    (part sets)
    all-from:K     {K, K+1, K+2, ...}, ap:K,1
    finite:A,B,..  explicit finite set
    ap:A,D         arithmetic progression {A, A+D, A+2D, ...}
    pow:B          {B^j : j >= 0}, includes 1        (B >= 2)
    dexp:B         {B^(B^j) : j >= 0}                (B >= 2)
    nat            all nonnegative integers          (multiplicity sets)
    zero|SPEC      {0} union SPEC                    (multiplicity sets)
    sparse:@FILE   the finite set listed in FILE, one integer per line,
                   ascending; the same set as finite: with those elements

Integers are ASCII digits only, here and wherever partlab reads one from
outside (parse_natural).  A finite set is one Finite however it is
written: finite:, sparse:@FILE, or construct_sparse_set's result.  A
progression is one ArithmeticProgression however it is written: all,
all-from:K or ap:A,D, printed as all for (1, 1), all-from:K for step 1
and ap:A,D otherwise.

Counting thresholds are integers: elements are integers, so a rational
threshold such as M(n/a) is exactly M(n // a), and no floating point is
involved.
"""

from __future__ import annotations

import io
import operator
import re
from bisect import bisect_right
from collections.abc import Iterator
from itertools import count as _count, islice


class SetSpecError(ValueError):
    """Base class for set-spec problems."""


class SpecSyntaxError(SetSpecError):
    """Malformed spec text; carries the offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidSetError(SetSpecError):
    """Structurally valid text describing a semantically invalid set."""


class IntegerSetSpec:
    """Common interface of all set variants.

    Instances are immutable; every operation is pure.  _key() gives
    equality, hashing and the Kind(fields) repr.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        """The class and the fields equality compares."""
        raise NotImplementedError

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        cls, *fields = self._key()
        return f"{cls.__name__}({', '.join(map(repr, fields))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a spec through __init__, whose parameters
        # are its __slots__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def iter_elements(self) -> Iterator[int]:
        """Yield the elements in strictly increasing order (possibly forever)."""
        raise NotImplementedError

    def count_leq(self, x: int) -> int:
        """|{s in set : s <= x}|; a rational x counts as floor(x).  Sets
        with a closed form override this enumeration."""
        return len(self.elements_upto(x))

    def spec_string(self) -> str:
        """Canonical text form, parseable by parse_set_spec."""
        raise NotImplementedError

    def contains_zero(self) -> bool:
        return self.count_leq(0) >= 1

    def elements_upto(self, bound: int) -> list[int]:
        """All members <= bound, ascending."""
        out = []
        for e in self.iter_elements():
            if e > bound:
                break
            out.append(e)
        return out

    def __str__(self) -> str:
        return self.spec_string()


class Finite(IntegerSetSpec):
    """An explicit finite set, however it was written: finite:A,B,..,
    sparse:@FILE or construct_sparse_set.  A set listed in a file keeps the
    path as its source, which only its spec string uses and which does not
    take part in equality."""

    __slots__ = ("elements", "source")

    def __init__(self, elements, source: str | None = None):
        # a tuple of strictly increasing ints, such as a checked anchors
        # file, is kept as it is; anything else is sorted and de-duplicated
        if not (
            type(elements) is tuple
            and all(type(e) is int for e in elements)
            and all(map(operator.lt, elements, islice(elements, 1, None)))
        ):
            elements = tuple(sorted(set(int(e) for e in elements)))
        if not elements:
            raise InvalidSetError("finite set must be nonempty")
        if elements[0] < 0:
            raise InvalidSetError("set elements must be nonnegative")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "source", source)

    def _key(self):
        return (type(self), self.elements)

    def iter_elements(self):
        return iter(self.elements)

    def count_leq(self, x):
        return bisect_right(self.elements, x)

    def spec_string(self):
        if self.source is not None:
            return f"sparse:@{self.source}"
        return "finite:" + ",".join(str(e) for e in self.elements)


class ArithmeticProgression(IntegerSetSpec):
    __slots__ = ("first", "step")

    def __init__(self, first: int, step: int):
        if first < 1 or step < 1:
            raise InvalidSetError("progression first and step must be positive")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "step", step)

    def _key(self):
        return (type(self), self.first, self.step)

    def iter_elements(self):
        return _count(self.first, self.step)

    def count_leq(self, x):
        if x < self.first:
            return 0
        return (x - self.first) // self.step + 1

    def spec_string(self):
        if self.step != 1:
            return f"ap:{self.first},{self.step}"
        return "all" if self.first == 1 else f"all-from:{self.first}"


class Powers(IntegerSetSpec):
    __slots__ = ("base",)

    def __init__(self, base: int):
        if base < 2:
            raise InvalidSetError("power base must be at least 2")
        object.__setattr__(self, "base", base)

    def _key(self):
        return (type(self), self.base)

    def iter_elements(self):
        v = 1
        while True:
            yield v
            v *= self.base

    def spec_string(self):
        return f"pow:{self.base}"


class DoublyExponential(IntegerSetSpec):
    """{base^(base^j) : j >= 0}; successive elements satisfy e' = e^base."""

    __slots__ = ("base",)

    def __init__(self, base: int):
        if base < 2:
            raise InvalidSetError("power base must be at least 2")
        object.__setattr__(self, "base", base)

    def _key(self):
        return (type(self), self.base)

    def iter_elements(self):
        v = self.base
        while True:
            yield v
            v = v**self.base

    def spec_string(self):
        return f"dexp:{self.base}"


class WithZero(IntegerSetSpec):
    """{0} union inner; the only way an infinite multiplicity set gets its 0."""

    __slots__ = ("inner",)

    def __init__(self, inner: IntegerSetSpec):
        if inner.contains_zero():
            raise InvalidSetError("inner set of zero| already contains 0")
        object.__setattr__(self, "inner", inner)

    def _key(self):
        return (type(self), self.inner)

    def iter_elements(self):
        yield 0
        yield from self.inner.iter_elements()

    def count_leq(self, x):
        if x < 0:
            return 0
        return 1 + self.inner.count_leq(x)

    def spec_string(self):
        if self == NAT_MULTS:
            return "nat"
        return "zero|" + self.inner.spec_string()


ALL_PARTS = ArithmeticProgression(1, 1)
NAT_MULTS = WithZero(ALL_PARTS)


# ---------------------------------------------------------------------------
# Operations

def validate_kind(spec: IntegerSetSpec, kind: str) -> IntegerSetSpec:
    """Enforce the part-set / multiplicity-set rules; returns spec unchanged."""
    if kind == "parts":
        if spec.contains_zero():
            raise InvalidSetError("part set must not contain 0")
    elif kind == "mults":
        if not spec.contains_zero():
            raise InvalidSetError("multiplicity set must contain 0")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return spec


# ---------------------------------------------------------------------------
# Parser

# [0-9] is the ASCII digits only; \d and str.isdigit() take every script's
_DIGITS = re.compile("[0-9]*")


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    end = _DIGITS.match(text, pos).end()
    if end == pos:
        raise SpecSyntaxError("expected an integer", pos)
    try:
        return int(text[pos:end]), end
    except ValueError:  # past int()'s limit on the digits it converts
        raise SpecSyntaxError(f"integer of {end - pos} digits is too long", pos) from None


def _parse_int_list(text: str, pos: int) -> tuple[list[int], int]:
    values, pos = [], pos
    v, pos = _parse_int(text, pos)
    values.append(v)
    while pos < len(text) and text[pos] == ",":
        v, pos = _parse_int(text, pos + 1)
        values.append(v)
    return values, pos


def parse_natural(text: str) -> int:
    """A whole string of ASCII digits as an integer, the rule of the spec
    language for integers read from outside the program; raises
    SpecSyntaxError for anything else (signs, underscores, other digits)."""
    value, end = _parse_int(text, 0)
    if end != len(text):
        raise SpecSyntaxError(f"trailing input {text[end:]!r}", end)
    return value


# Largest anchors or epsilon file read: 2^21 lines of a 7-digit anchor and
# its newline.  A read stops one byte past it, so a path such as /dev/zero
# costs no more memory than a file at the cap.
MAX_FILE_BYTES = 2**21 * 8


def read_lines(path: str) -> io.StringIO:
    """The lines of a UTF-8 file of at most MAX_FILE_BYTES, to iterate one
    at a time, newlines read as open() reads them.  Raises OSError when the
    file cannot be read or is larger, UnicodeDecodeError when it is not
    UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise OSError(f"more than {MAX_FILE_BYTES} bytes")
    return io.StringIO(data.decode("utf-8"), newline=None)


def _load_anchor_file(path: str) -> Finite:
    """The set listed in an anchors file, parsed one line at a time, so
    that only the integers are kept."""
    try:
        lines = read_lines(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSetError(f"cannot read anchors file {path}: {exc}") from exc
    anchors = []
    last = 0
    with lines:  # closing frees the text before the anchors become a tuple
        for text in filter(None, map(str.strip, lines)):
            try:
                anchor = parse_natural(text)
            except ValueError as exc:
                raise InvalidSetError(
                    f"anchors file {path} must hold one integer per line"
                ) from exc
            if anchor <= last:
                raise InvalidSetError("anchors must be strictly increasing positive integers")
            anchors.append(anchor)
            last = anchor
    return Finite(tuple(anchors), source=path)


def _parse(text: str, pos: int) -> tuple[IntegerSetSpec, int]:
    rest = text[pos:]
    if rest.startswith("zero|"):
        # a nested zero| holds 0 already; rejected here, without recursing
        if text.startswith("zero|", pos + 5):
            raise InvalidSetError("inner set of zero| already contains 0")
        inner, end = _parse(text, pos + 5)
        return WithZero(inner), end
    if rest.startswith("all-from:"):
        start, end = _parse_int(text, pos + 9)
        return ArithmeticProgression(start, 1), end
    if rest.startswith("all"):
        return ALL_PARTS, pos + 3
    if rest.startswith("nat"):
        return NAT_MULTS, pos + 3
    if rest.startswith("finite:"):
        values, end = _parse_int_list(text, pos + 7)
        return Finite(tuple(values)), end
    if rest.startswith("ap:"):
        first, end = _parse_int(text, pos + 3)
        if end >= len(text) or text[end] != ",":
            raise SpecSyntaxError("ap: needs 'first,step'", end)
        step, end = _parse_int(text, end + 1)
        return ArithmeticProgression(first, step), end
    if rest.startswith("pow:"):
        base, end = _parse_int(text, pos + 4)
        return Powers(base), end
    if rest.startswith("dexp:"):
        base, end = _parse_int(text, pos + 5)
        return DoublyExponential(base), end
    if rest.startswith("sparse:@"):
        path = text[pos + 8 :]
        if not path:
            raise SpecSyntaxError("sparse:@ needs a file path", pos + 8)
        return _load_anchor_file(path), len(text)
    raise SpecSyntaxError(f"unrecognized set form {rest!r}", pos)


def parse_set_spec(text: str, kind: str) -> IntegerSetSpec:
    """Parse a spec string and validate it for the given kind (parts|mults)."""
    spec, end = _parse(text, 0)
    if end != len(text):
        raise SpecSyntaxError(f"trailing input {text[end:]!r}", end)
    return validate_kind(spec, kind)


# ---------------------------------------------------------------------------
# Sparse-set construction

def step_function_value(table: list[tuple[int, int]], x: int) -> int | None:
    """Value of the tabulated step function at x, or None left of the
    table; the thresholds are strictly increasing (validate_step_table)."""
    i = bisect_right(table, x, key=operator.itemgetter(0))
    return table[i - 1][1] if i else None


def validate_step_table(table: list[tuple[int, int]]) -> None:
    if not table:
        raise InvalidSetError("epsilon table is empty")
    thresholds = [t for t, _ in table]
    values = [v for _, v in table]
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise InvalidSetError("epsilon thresholds must be strictly increasing")
    if thresholds[0] < 1:
        raise InvalidSetError("epsilon thresholds must be positive")
    if any(b < a for a, b in zip(values, values[1:])):
        raise InvalidSetError("epsilon values must be nondecreasing")


def construct_sparse_set(
    epsilon: list[tuple[int, int]], source: str | None = None
) -> Finite:
    """Build anchors a_1 < a_2 < ... with a_i the least x > a_{i-1} where
    epsilon(x) >= i + 1.

    For the resulting set S the counting function A(n) = |S inter [1, n]|
    then satisfies A(n) + 1 <= epsilon(n) for every n >= a_1 inside the
    tabulated range, because epsilon is nondecreasing.

    One pass over the table builds them: at each entry (threshold, value)
    anchors are added while A + 2 <= value, each at max(a_{i-1} + 1,
    threshold).  The pass leaves an entry only once its value is below
    the next target A + 2, and the values are nondecreasing, so every
    earlier entry is below it too: the first entry that reaches a target
    is the one the pass is on.  The table asks for its last value - 1
    anchors, and one that asks for more than an anchors file at the read
    cap holds, MAX_FILE_BYTES // 8 = 2^21, is refused before any is built.
    """
    validate_step_table(epsilon)
    wanted, most = epsilon[-1][1] - 1, MAX_FILE_BYTES // 8
    if wanted > most:
        raise InvalidSetError(f"epsilon table asks for {wanted} anchors; at most {most}")
    anchors: list[int] = []
    prev = 0
    for threshold, value in epsilon:
        while len(anchors) + 2 <= value:
            prev = max(prev + 1, threshold)
            anchors.append(prev)
    if not anchors:
        raise InvalidSetError("epsilon table never reaches 2; no anchors exist")
    return Finite(tuple(anchors), source=source)
