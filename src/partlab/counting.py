"""Exact partition counting: p(n; S, M), plus independent oracles
(explicit enumeration, Euler's pentagonal recurrence).

count_table builds a pair's table from its generating-function identity
when one covers the pair, and one layer per part otherwise:

- All parts with multiplicities {0, ..., m-1} below upto (the classical
  pair is m = upto + 1): Glaisher's P(x) E(x^m), where 1/P = E is Euler's
  pentagonal series, so the pentagonal recurrence seeded with E(x^m) gives
  the table in O(n^1.5) additions instead of the DP's O(n^2).
- Powers of B with all multiplicities: Mahler's F(x) = F(x^B) / (1 - x)
  (de Bruijn's binary partitions for B = 2), a few running-sum passes.
- all-from:s (ap:s,1) with all multiplicities, s small against upto:
  P(x) times (1 - x^a) for each a < s, so the pentagonal table followed
  by s - 1 removal passes new[v] = old[v] - old[v - a].
- Otherwise a layer per part a <= n folds in the part's admissible
  positive multiples m*a (all of a, 2a, 3a, ... when multiplicities are
  unrestricted).  While the table is sparse, a layer pushes each nonzero
  entry to its shifted targets, costing (support size) x (number of
  multiples) additions; doubly exponential and other thin sets never
  leave this mode.  Once that product exceeds a quarter of the row length
  the rest of the table runs on the dense layers of _dpcore_py
  (KERNEL_BACKEND is always "python").

A table to N holds at most two arrays of N+1 exact integers, whatever the
method.  Passing kernel=K skips every identity and sparse layer and runs the
plain dense DP with kernel K.  The tests check each path against an oracle
that shares no code with it: brute force to n = 40 for every path, the
dense DP on a test-local one-entry-at-a-time kernel for the identities and
the sparse layers, the pentagonal recurrence and that kernel for
_dpcore_py's layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import sub

from .setspec import (
    ALL_PARTS,
    ArithmeticProgression,
    Finite,
    IntegerSetSpec,
    NAT_MULTS,
    Powers,
    validate_kind,
)

from . import _dpcore_py as _kernel

KERNEL_BACKEND = _kernel.BACKEND

BRUTE_FORCE_LIMIT = 40

# A layer is folded in sparsely while the pushes it costs, (support size) x
# (number of multiples), are at most the row length divided by this.
SPARSE_DIVISOR = 4


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

    @cached_property
    def finite_coprime(self) -> Finite | None:
        """finite_coprime_parts(parts, mults), asked at every n by the
        polynomial-growth bounds."""
        return finite_coprime_parts(self.parts, self.mults)

    @cached_property
    def bound_columns(self) -> dict:
        """The value and verdict columns of registry bounds, keyed by
        (kind, bound id), and the table-wide facts they read, keyed by
        ("fact", name); bounds fills it on first use, so a column belongs
        to these values and not to (parts, mults)."""
        return {}


def finite_coprime_parts(
    parts: IntegerSetSpec, mults: IntegerSetSpec
) -> Finite | None:
    """The part set itself when it is finite with gcd 1 and
    multiplicities are unrestricted (the setting of the polynomial-growth
    bounds); None otherwise."""
    if not isinstance(parts, Finite) or mults != NAT_MULTS:
        return None
    return parts if math.gcd(*parts.elements) == 1 else None


def count_table(
    upto: int,
    parts: IntegerSetSpec,
    mults: IntegerSetSpec = NAT_MULTS,
    kernel=None,
) -> CountTable:
    """p(0..upto; parts, mults) by the cheapest exact method (see the module
    docstring); with a kernel given, by the plain dense DP on that kernel."""
    validate_kind(parts, "parts")
    validate_kind(mults, "mults")
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    if kernel is None:
        values = _identity_table(upto, parts, mults)
        if values is not None:
            return CountTable(parts, mults, tuple(values))
    unrestricted = mults == NAT_MULTS
    k = kernel if kernel is not None else _kernel
    values = [0] * (upto + 1)
    values[0] = 1
    support = [0] if kernel is None else None  # None once the table is dense
    sparse_limit = upto // SPARSE_DIVISOR
    for a in parts.elements_upto(upto):
        if unrestricted:
            offsets = range(a, upto + 1, a)
        else:
            offsets = [m * a for m in mults.elements_upto(upto // a) if m > 0]
            if not offsets:
                continue
        if support is not None and len(support) * len(offsets) <= sparse_limit:
            support = _sparse_layer(values, support, offsets)
            continue
        support = None
        if unrestricted:
            k.unbounded_layer(values, a)
        else:
            k.restricted_layer(values, offsets)
    return CountTable(parts, mults, tuple(values))


def _identity_table(
    upto: int, parts: IntegerSetSpec, mults: IntegerSetSpec
) -> list[int] | None:
    """p(0..upto) from the pair's generating-function identity, or None
    when no identity covers the pair (see the module docstring)."""
    if parts == ALL_PARTS:
        # the multiplicities that fit below upto are {0, ..., m-1} exactly
        m = mults.count_leq(upto)
        return pentagonal_table(upto, m) if mults.count_leq(m - 1) == m else None
    if mults != NAT_MULTS:
        return None
    if isinstance(parts, Powers):
        return _mahler_table(upto, parts.base)
    # s - 1 removal passes are cheaper than the upto - s + 1 layers
    if (
        isinstance(parts, ArithmeticProgression)
        and parts.step == 1
        and 2 * parts.first <= upto + 2
    ):
        values = pentagonal_table(upto)
        for a in range(1, parts.first):
            values[a:] = list(map(sub, values[a:], values[:-a]))
        return values
    return None


def _mahler_table(upto: int, base: int) -> list[int]:
    """p(0..upto) for the powers of base with unrestricted multiplicities.

    Mahler's equation F(x) = F(x^B) / (1 - x) gives p(n) = s(n // B), where
    s(k) = p(0) + ... + p(k) = s(k - 1) + s(k // B).  So the table to upto
    repeats each running sum of the table to upto // B B times: log_B(upto)
    C-level passes instead of one dense layer per power.
    """
    if upto == 0:
        return [1]
    sums = list(accumulate(_mahler_table(upto // base, base)))
    values = list(chain.from_iterable(zip(*[sums] * base)))
    del values[upto + 1 :]
    return values


def _sparse_layer(values: list, support: list, offsets) -> list:
    """Fold in one part by pushing every nonzero values[s] (s in the
    ascending `support`) to values[s + off]; returns the new support.

    Descending s keeps each source at its previous-layer value: every
    target s + off lies above all the sources still to come.
    """
    top = len(values) - 1
    reached = set(support)
    for s in reversed(support):
        v = values[s]
        for off in offsets:
            t = s + off
            if t > top:
                break
            values[t] += v
            reached.add(t)
    return sorted(reached)


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
    validate_kind(parts, "parts")
    validate_kind(mults, "mults")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}")
    part_list = parts.elements_upto(n)

    def walk(i: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if i == len(part_list):
            return 0
        a = part_list[i]
        total = 0
        for m in mults.elements_upto(remaining // a):
            total += walk(i + 1, remaining - m * a)
        return total

    return walk(0, n)


def pentagonal_table(upto: int, m: int | None = None) -> list[int]:
    """q(0..upto) for all parts and multiplicities {0, ..., m-1}, by Euler's
    pentagonal-number recurrence; without m, the classical p(0..upto).

    Euler's series E(x) = sum over all integers k of (-1)^k x^(k(3k-1)/2)
    is 1/P(x), and Glaisher's identity makes the generating function
    P(x) E(x^m).  So q E = E(x^m), that is q(n) = [x^n] E(x^m) + sum over
    k >= 1 of (-1)^(k-1) [q(n - k(3k-1)/2) + q(n - k(3k+1)/2)].  For m > upto
    the seed E(x^m) is 1 to upto and q is p.
    """
    q = [0] * (upto + 1)
    q[0] = 1
    if m is not None:
        # the seed E(x^m): (-1)^k at m k(3k-1)/2 and m k(3k+1)/2
        k = 1
        while (g := m * k * (3 * k - 1) // 2) <= upto:
            q[g] = -1 if k % 2 else 1
            if g + m * k <= upto:
                q[g + m * k] = q[g]
            k += 1
    for n in range(1, upto + 1):
        total = q[n]
        k = 1
        while True:
            g1 = n - k * (3 * k - 1) // 2
            if g1 < 0:
                break
            term = q[g1]
            g2 = n - k * (3 * k + 1) // 2
            if g2 >= 0:
                term += q[g2]
            total += term if k % 2 else -term
            k += 1
        q[n] = total
    return q
