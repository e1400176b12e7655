"""Exact partition counting: p(n; S, M), plus independent oracles
(explicit enumeration, Euler's pentagonal recurrence).

count_table builds a pair's table from its generating-function identity
when one covers the pair, and one layer per part otherwise:

- All parts with multiplicities {0, ..., m-1} below upto (the classical
  pair is m = upto + 1): Glaisher's P(x) E(x^m), where 1/P = E is Euler's
  pentagonal series, so the pentagonal recurrence seeded with E(x^m) gives
  the table in O(n^1.5) additions instead of the DP's O(n^2).  It runs in
  block passes: in blocks of width w ~ sqrt(n), every offset >= w is one
  C-level pass over a block, and only the offsets below w run one entry
  at a time.
- Powers of B with all multiplicities: Mahler's F(x) = F(x^B) / (1 - x)
  (de Bruijn's binary partitions for B = 2), a few running-sum passes.
- all-from:s (ap:s,1) with all multiplicities, s small against upto:
  P(x) times (1 - x^a) for each a < s, so the pentagonal table followed
  by s - 1 removal passes new[v] = old[v] - old[v - a].
- Otherwise a layer per part a <= n folds in the part's admissible
  positive multiples m*a (all of a, 2a, 3a, ... when multiplicities are
  unrestricted).  While the table is sparse it is a {n: count} dict of its
  nonzero entries, and a layer pushes each of them to its shifted
  targets, costing (support size) x (number of multiples) additions;
  doubly exponential and other thin sets never leave this mode.  Once that
  product exceeds a quarter of the row length the rest of the table runs
  on the dense layers of _dpcore_py (KERNEL_BACKEND is always "python").

A table to N holds at most two arrays of N+1 exact integers, whatever the
method.  Passing kernel=K skips every identity and sparse layer and runs the
plain dense DP with kernel K.  extend_row adds one part of unrestricted
multiplicity to a row already built, for callers that build the tables of
part sets sharing prefixes.

count_partitions asks for one value, and three kinds of pair give it
without the row p(0..n): the two below, and a thin pair (see
count_support).

- A finite set of k parts with all multiplicities, when k L <= n for
  L = lcm(parts): Sylvester's quasi-polynomial.  On each class n = r + t L
  the count is a polynomial in t of degree below k, so the row to
  r + (k - 1) L gives k of its values and Newton's forward differences
  give the one at t = n // L.
- Powers of B with all multiplicities: Mahler's equation summed once
  more, which needs the table to n // B^2 only.

Every other pair reads its value from count_support.

count_support is the one builder behind count_table and count_partitions.
A pair no identity covers whose layers all stay sparse (a thin pair, such
as dexp:2 with zero|dexp:2) comes back as the {n: count} dict of its
nonzero entries, and every other pair as the CountTable that count_table
returns, built once: a layer that turns dense finishes on the row, and
nothing is redone.  count_table spreads a dict over the row p(0..upto);
count_partitions, explore and the slow-growth suite read the dict itself,
so a thin pair to 2^20 costs its ~1400 nonzero entries, not 2^20 zeros.

The tests check each path against an oracle that shares no code with it:
brute force to n = 40 for every path, the dense DP on a test-local
one-entry-at-a-time kernel for the identities, the sparse layers and the
three one-value routes, the pentagonal recurrence and that kernel for
_dpcore_py's layers, and the recurrence one entry at a time, kept in the
tests, for pentagonal_table's block passes.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, chain
from operator import add, sub

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


class CountTable:
    """Exact values p(0..N; parts, mults); values[0] = 1 (empty partition).

    The table-wide facts below are computed once, on first use, so that
    per-n questions about a prefix of the table cost O(1).  A table is
    immutable, so a fact stays true of its values, and it equals only
    itself.
    """

    def __init__(
        self, parts: IntegerSetSpec, mults: IntegerSetSpec, values: tuple[int, ...]
    ):
        # the facts are cached_property entries of the same __dict__
        vars(self).update(parts=parts, mults=mults, values=values)

    def __setattr__(self, name, value):
        raise AttributeError("CountTable is immutable")

    def __delattr__(self, name):
        raise AttributeError("CountTable is immutable")

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
    if kernel is not None:
        _validate(upto, parts, mults)
        return CountTable(parts, mults, tuple(_layers(upto, parts, mults, kernel)))
    result = count_support(upto, parts, mults)
    if isinstance(result, dict):
        return CountTable(parts, mults, tuple(_row(result, upto)))
    return result


def count_support(
    upto: int, parts: IntegerSetSpec, mults: IntegerSetSpec = NAT_MULTS
) -> dict | CountTable:
    """p(0..upto; parts, mults) as the {n: p(n)} dict of its nonzero
    entries when no identity covers the pair and every layer stays sparse;
    otherwise the CountTable of count_table, so a pair whose layers turn
    dense is built once.  The dict always holds p(0) = 1, and a missing n
    <= upto has p(n) = 0."""
    _validate(upto, parts, mults)
    values = _identity_table(upto, parts, mults)
    if values is None:
        values = _layers(upto, parts, mults)
        if isinstance(values, dict):
            return values
    return CountTable(parts, mults, tuple(values))


def _validate(upto: int, parts: IntegerSetSpec, mults: IntegerSetSpec) -> None:
    validate_kind(parts, "parts")
    validate_kind(mults, "mults")
    if upto < 0:
        raise ValueError("upto must be nonnegative")


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


def _layers(
    upto: int, parts: IntegerSetSpec, mults: IntegerSetSpec, kernel=None
) -> dict | list:
    """p(0..upto) folded in one layer per part.  While the table is sparse
    it is a {n: count} dict of its nonzero entries, and it is returned as
    one when every layer stayed sparse; otherwise the rest runs on the row
    of upto + 1 entries, which is returned.  A kernel runs every layer dense.
    """
    unrestricted = mults == NAT_MULTS
    k = kernel if kernel is not None else _kernel
    table = {0: 1} if kernel is None else _row({0: 1}, upto)
    sparse_limit = upto // SPARSE_DIVISOR
    for a in parts.elements_upto(upto):
        if unrestricted:
            offsets = range(a, upto + 1, a)
        else:
            offsets = [m * a for m in mults.elements_upto(upto // a) if m > 0]
            if not offsets:
                continue
        if isinstance(table, dict):
            if len(table) * len(offsets) <= sparse_limit:
                _sparse_layer(table, offsets, upto)
                continue
            table = _row(table, upto)
        if unrestricted:
            k.unbounded_layer(table, a)
        else:
            k.restricted_layer(table, offsets)
    return table


def extend_row(values: list[int], a: int) -> list[int]:
    """A new row: values, the row p(0..N) of some part set without a, with
    the part a of unrestricted multiplicity added to the set.  One dense
    layer, so a family of part sets sharing prefixes can be built by
    extending rows instead of building each table anew."""
    row = values[:]
    _kernel.unbounded_layer(row, a)
    return row


def _row(support: dict, upto: int) -> list[int]:
    """The row p(0..upto) of a table held as its nonzero entries."""
    values = [0] * (upto + 1)
    for s, v in support.items():
        values[s] = v
    return values


def _sparse_layer(support: dict, offsets, top: int) -> None:
    """Fold in one part by pushing every nonzero entry support[s] to
    support[s + off] for each offset, up to index top, in place.

    Descending s keeps each source at its previous-layer value: every
    target s + off lies above all the sources still to come.
    """
    for s in sorted(support, reverse=True):
        v = support[s]
        for off in offsets:
            t = s + off
            if t > top:
                break
            support[t] = support.get(t, 0) + v


def count_partitions(
    n: int, parts: IntegerSetSpec, mults: IntegerSetSpec = NAT_MULTS
) -> int:
    """Exact p(n; parts, mults) by the cheapest exact route to the one value:
    Sylvester's quasi-polynomial for a finite part set with k * lcm <= n,
    Mahler's sum over the table to n // B^2 for powers of B (both with all
    multiplicities), and count_support otherwise: the sparse support of a
    thin pair, the row of any other (see the module docstring).
    """
    _validate(n, parts, mults)
    if mults == NAT_MULTS and isinstance(parts, Powers):
        return _mahler_count(n, parts)
    if mults == NAT_MULTS and isinstance(parts, Finite):
        value = _quasi_polynomial_count(n, parts)
        if value is not None:
            return value
    result = count_support(n, parts, mults)
    return result.get(n, 0) if isinstance(result, dict) else result.values[n]


def _mahler_count(n: int, parts: Powers) -> int:
    """p(n) for the powers of B = parts.base, from the table to q = n // B^2.

    With m = n // B and s(j) = p(0) + ... + p(j), Mahler's equation gives
    p(n) = s(m) = sum over j <= m of s(j // B), and j // B takes each value
    below q for B values of j and q itself for m - q B + 1 of them:
    p(n) = B (s(0) + ... + s(q - 1)) + (m - q B + 1) s(q).
    """
    base = parts.base
    m = n // base
    q = m // base
    values = count_table(q, parts).values
    s_q = sum(values)
    return base * (sum(accumulate(values)) - s_q) + (m - q * base + 1) * s_q


def _quasi_polynomial_count(n: int, parts: Finite) -> int | None:
    """p(n) for a finite part set with unrestricted multiplicities, or None
    when k * L > n, where k is the number of parts and L their lcm.

    1/prod(1 - x^a) = Q(x) / (1 - x^L)^k with deg Q < k L, so on each class
    n = r + t L the count is a polynomial in t of degree below k, for every
    t >= 0 (Sylvester 1857, Bell 1943).  Its values at t = 0..k-1 come from
    the row to r + (k - 1) L, and Newton's forward-difference form
    sum over i of C(t, i) Delta^i gives it at t = n // L in integers.
    """
    k = len(parts.elements)
    lcm = 1
    for a in parts.elements:
        lcm = math.lcm(lcm, a)
        if k * lcm > n:
            return None
    r, t = n % lcm, n // lcm
    row = count_table(r + (k - 1) * lcm, parts).values
    diffs = row[r::lcm]
    total = 0
    for i in range(k):
        total += math.comb(t, i) * diffs[0]
        diffs = list(map(sub, diffs[1:], diffs[:-1]))
    return total


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
    k >= 1 of (-1)^(k-1) [q(n - g1) + q(n - g2)] with g1 = k(3k-1)/2 and
    g2 = k(3k+1)/2.  For m > upto the seed E(x^m) is 1 to upto and q is p.

    The row is finished in blocks [lo, hi) of width w = max(isqrt(upto),
    16), in ascending order, and each entry starts from its seed.  Every
    offset g >= w reads q(n - g) < lo only, so it is one C-level pass
    adding (or subtracting) a shifted slice of finished entries to the
    whole block.  Then the offsets g < w run one entry at a time.  The row
    is kept behind w zeros that stand for q(-w..-1), so no read needs a
    bounds test.
    """
    # below 16, passes over blocks of a few entries would cost small tables
    # more than running every offset entry by entry
    width = max(math.isqrt(upto), 16)
    end = width + upto + 1
    q = [0] * end
    q[width] = 1
    if m is not None:
        # the seed E(x^m): (-1)^k at m k(3k-1)/2 and m k(3k+1)/2
        k = 1
        while (g := m * k * (3 * k - 1) // 2) <= upto:
            q[width + g] = -1 if k % 2 else 1
            if g + m * k <= upto:
                q[width + g + m * k] = q[width + g]
            k += 1
    # the offsets below the block width by sign, and the others ascending
    plus, minus, passes = [], [], []
    k = 1
    while (g1 := k * (3 * k - 1) // 2) <= upto:
        for g in (g1, g1 + k):
            if g < width:
                (plus if k % 2 else minus).append(g)
            elif g <= upto:
                passes.append((g, add if k % 2 else sub))
        k += 1
    for lo in range(width + 1, end, width):
        hi = min(lo + width, end)
        for g, op in passes:
            if g >= hi - width:
                break
            q[lo:hi] = map(op, q[lo:hi], q[lo - g : hi - g])
        for n in range(lo, hi):
            total = q[n]
            for g in plus:
                total += q[n - g]
            for g in minus:
                total -= q[n - g]
            q[n] = total
    del q[:width]
    return q
