"""Exact partition counting: p(n; S, M) by dynamic programming, plus
independent oracles (explicit enumeration, Euler's pentagonal recurrence).

The DP runs one layer per part a <= n.  With unrestricted multiplicities
the layer is the classical ascending in-place recurrence; otherwise the
layer folds in the part's admissible positive multiples m*a with a
descending in-place scan.  Either way a table to N costs one rolling array
of N+1 exact integers.

The inner loops live in a compiled Cython kernel when available, with a
pure-Python fallback selected at import time (see KERNEL_BACKEND).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .arith import FiniteCoprimeSet
from .setspec import (
    AllFrom,
    Finite,
    IntegerSetSpec,
    InvalidSetError,
    NAT_MULTS,
    WithZero,
)

try:
    from . import _dpcore as _kernel
except ImportError:  # extension not built; pure Python does the same work
    from . import _dpcore_py as _kernel

KERNEL_BACKEND = _kernel.BACKEND

BRUTE_FORCE_LIMIT = 40


@dataclass(frozen=True)
class CountTable:
    """Exact values p(0..N; parts, mults); values[0] = 1 (empty partition).

    The table-wide facts below are computed once, on first use, so that
    per-n questions about a prefix of the table cost O(1).
    """

    parts: IntegerSetSpec
    mults: IntegerSetSpec
    values: tuple[int, ...]

    @property
    def upto(self) -> int:
        return len(self.values) - 1

    @cached_property
    def prefix_sums(self) -> tuple[int, ...]:
        """prefix_sums[n] = p(0) + ... + p(n)."""
        return tuple(accumulate(self.values))

    @cached_property
    def record_flags(self) -> tuple[bool, ...]:
        """record_flags[n]: p(n) equals the maximum of p over [0, n]."""
        best = 0
        flags = []
        for v in self.values:
            flags.append(v >= best)
            best = max(best, v)
        return tuple(flags)

    @cached_property
    def nondecreasing_prefix(self) -> int:
        """Length of the longest nondecreasing prefix of values."""
        values = self.values
        for n in range(1, len(values)):
            if values[n] < values[n - 1]:
                return n
        return len(values)

    def record_indices(self) -> list[int]:
        """Indices n where p(n) equals the maximum of p over [0, n]."""
        return [n for n, record in enumerate(self.record_flags) if record]

    def is_nondecreasing(self) -> bool:
        return self.nondecreasing_prefix == len(self.values)


def _check_pair(parts: IntegerSetSpec, mults: IntegerSetSpec) -> None:
    if parts.contains_zero():
        raise InvalidSetError("part set must not contain 0")
    if not mults.contains_zero():
        raise InvalidSetError("multiplicity set must contain 0")


def has_all_multiplicities(mults: IntegerSetSpec) -> bool:
    """True for the full multiplicity set {0, 1, 2, ...}."""
    return isinstance(mults, WithZero) and mults.inner == AllFrom(1)


def finite_coprime_parts(
    parts: IntegerSetSpec, mults: IntegerSetSpec
) -> FiniteCoprimeSet | None:
    """The part set as a FiniteCoprimeSet when it is finite with gcd 1 and
    multiplicities are unrestricted (the setting of the polynomial-growth
    bounds); None otherwise."""
    if not isinstance(parts, Finite) or not has_all_multiplicities(mults):
        return None
    if math.gcd(*parts.elements) != 1:
        return None
    return FiniteCoprimeSet(parts.elements)


def count_table(
    upto: int,
    parts: IntegerSetSpec,
    mults: IntegerSetSpec = NAT_MULTS,
    kernel=None,
) -> CountTable:
    """One DP pass producing p(0..upto; parts, mults)."""
    _check_pair(parts, mults)
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    k = kernel if kernel is not None else _kernel
    values = [0] * (upto + 1)
    values[0] = 1
    unrestricted = has_all_multiplicities(mults)
    for a in parts.elements_upto(upto):
        if unrestricted:
            k.unbounded_layer(values, a)
        else:
            offsets = [m * a for m in mults.elements_upto(upto // a) if m > 0]
            if offsets:
                k.restricted_layer(values, offsets)
    return CountTable(parts, mults, tuple(values))


def count_partitions(
    n: int, parts: IntegerSetSpec, mults: IntegerSetSpec = NAT_MULTS
) -> int:
    """Exact p(n; parts, mults)."""
    return count_table(n, parts, mults).values[n]


def brute_force_count(
    n: int, parts: IntegerSetSpec, mults: IntegerSetSpec = NAT_MULTS
) -> int:
    """Count by explicit recursive enumeration; independent of the DP path.

    Guarded at n <= 40: the recursion walks every admissible multiplicity
    assignment.
    """
    _check_pair(parts, mults)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}")
    part_list = parts.elements_upto(n)

    def admissible_mults(limit: int) -> list[int]:
        return mults.elements_upto(limit)

    def walk(i: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if i == len(part_list):
            return 0
        a = part_list[i]
        total = 0
        for m in admissible_mults(remaining // a):
            total += walk(i + 1, remaining - m * a)
        return total

    return walk(0, n)


def cumulative_count(n: int, parts: FiniteCoprimeSet) -> int:
    """r'(n) = sum of p(j; parts, all multiplicities) for j <= n."""
    table = count_table(n, Finite(parts.elements), NAT_MULTS)
    return sum(table.values)


def pentagonal_table(upto: int) -> list[int]:
    """Classical p(0..upto) via Euler's pentagonal-number recurrence.

    Independent oracle for parts = all positive integers, multiplicities
    unrestricted: p(n) = sum_k (-1)^(k-1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    """
    p = [0] * (upto + 1)
    p[0] = 1
    for n in range(1, upto + 1):
        total = 0
        k = 1
        while True:
            g1 = n - k * (3 * k - 1) // 2
            if g1 < 0:
                break
            term = p[g1]
            g2 = n - k * (3 * k + 1) // 2
            if g2 >= 0:
                term += p[g2]
            total += term if k % 2 else -term
            k += 1
        p[n] = total
    return p
