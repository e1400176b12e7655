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

count_partitions asks for one value, and four kinds of pair give it
without the row p(0..n): the three below, and a thin pair (see
count_support).

- All parts with all multiplicities, from n = RADEMACHER_FROM on:
  Rademacher's convergent series, with Selberg's formula for its sums of
  roots of unity, summed in arith's integer fixed point, whose operations
  and series each carry a bound on their rounding, and Lehmer's bound on
  the tail (see _rademacher_count).  The one integer within the bounds is
  p(n): O(sqrt(n)) terms, each at the precision its size needs, and no
  mpmath.

- A finite set of k parts with all multiplicities, when k L <= n for
  L = lcm(parts): Sylvester's quasi-polynomial.  On each class n = r + t L
  the count is a polynomial in t of degree below k, so the row to
  r + (k - 1) L gives k of its values and Newton's forward differences
  give the one at t = n // L.
- Powers of B with all multiplicities: Mahler's equation p(n) = sum over
  j <= n // B of p(j), summed as binomial moments of p from n // B down to
  0 (see _mahler_count).  It reads no table: O(log_B(n)^3) multiplications
  of integers, and no list longer than log_B(n) + 1.

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
one-value routes, the pentagonal recurrence and that kernel for
_dpcore_py's layers, the recurrence one entry at a time, kept in the
tests, for pentagonal_table's block passes, and pentagonal_table for
Rademacher's series, at every n to 600 and on generated n to 10^4.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, chain
from operator import add, mul, sub

from .arith import arctan_inverse, cos_taylor, exp_taylor, fixed_pi, product, quotient, rescale
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

# count_partitions takes Rademacher's series for the classical pair from
# this n on; below it the pentagonal row is cheaper.  In process, warm, best
# of 60 on a 2-vCPU Xeon: the row takes 0.51 ms at 250 and 0.76 ms at 300,
# the series 0.52 and 0.66 ms.
RADEMACHER_FROM = 300

# Bits each term of Rademacher's series carries below the scale of the sum,
# and the sum below the terms.bit_length() bits its roundings take.  The
# sum's scale doubles while the enclosure holds two integers, up to the cap.
_GUARD_BITS = 8
_MAX_BITS = 1 << 12


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
    Rademacher's series, certified in integers, for all parts from n =
    RADEMACHER_FROM on, Sylvester's quasi-polynomial for a finite part set
    with k * lcm <= n, Mahler's equation summed as binomial moments, with no
    table, for powers of B (all three with all multiplicities), and
    count_support otherwise: the sparse support of a thin pair, the row of
    any other (see the module docstring).
    """
    _validate(n, parts, mults)
    if mults == NAT_MULTS and parts == ALL_PARTS and n >= RADEMACHER_FROM:
        return _rademacher_count(n)
    if mults == NAT_MULTS and isinstance(parts, Powers):
        return _mahler_count(n, parts)
    if mults == NAT_MULTS and isinstance(parts, Finite):
        value = _quasi_polynomial_count(n, parts)
        if value is not None:
            return value
    result = count_support(n, parts, mults)
    return result.get(n, 0) if isinstance(result, dict) else result.values[n]


def _mahler_count(n: int, parts: Powers) -> int:
    """p(n) for the powers of B = parts.base, in O(log_B(n)^3) integer
    operations and no table.

    Mahler's equation gives p(n) = sum over j <= n // B of p(j).  With the
    binomial moments N_t(x) = sum over j <= x of C(j, t) p(j), that is
    p(n) = N_0(n // B).  Putting Mahler's sum into N_t, swapping the sums
    and summing C(j, t) over iB <= j <= x by the hockey-stick identity
    gives, with y = x // B,

        N_t(x) = C(x + 1, t + 1) N_0(y) - sum over i <= y of C(iB, t + 1) p(i)
               = C(x + 1, t + 1) N_0(y) - sum over u = 1..t+1 of a[t][u] N_u(y),

    where a[t][u] is the u-th forward difference at i = 0 of the degree
    t + 1 polynomial i -> C(iB, t + 1) (so C(iB, t + 1) = sum over u of
    a[t][u] C(i, u), and a[t][0] = 0), and N_t(0) = [t == 0].  The walk
    goes up x = n // B^k, ..., n // B^2, n // B; each level needs one
    moment fewer than the level below it.
    """
    base = parts.base
    levels = []
    x = n // base
    while x:
        levels.append(x)
        x //= base
    coefficients = []
    for t in range(len(levels)):
        values = [math.comb(i * base, t + 1) for i in range(t + 2)]
        row = []
        for _ in range(t + 1):
            values = list(map(sub, values[1:], values[:-1]))
            row.append(values[0])
        coefficients.append(row)
    # moments[t] = N_t(x) at the current level, from N_t(0) at the bottom
    moments = [1] + [0] * len(levels)
    for x in reversed(levels):
        moments = [
            math.comb(x + 1, t + 1) * moments[0]
            - sum(map(mul, coefficients[t], moments[1 : t + 2]))
            for t in range(len(moments) - 1)
        ]
    return moments[0]


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


def _rademacher_count(n: int) -> int:
    """p(n) for all parts with all multiplicities, n >= 2, from Rademacher's
    convergent series (1937), summed in integers and certified exact.

    With D = 24n - 1 and mu = pi sqrt(D) / 6, the series is p(n) = 2 pi
    D^(-3/4) times the sum over k >= 1 of A_k(n) / k I_{3/2}(mu / k), where
    I_{3/2}(z) = sqrt(2 / (pi z)) (cosh z - sinh(z) / z).  Selberg's formula
    (published by Whiteman, 1956) gives A_k(n) = sqrt(k / 3) S_k(n) with

        S_k(n) = sum over 0 <= l < 2k with (3l^2 + l) / 2 = -n (mod k)
                 of (-1)^l cos(pi (6l + 1) / (6k)),

    (its half l >= k repeats the half l < k up to a weight, so only l < k
    is scanned; see _rademacher_sum), and with both put in, the powers of
    pi, k and D cancel:

        p(n) = (4 / D) sum over k >= 1 of S_k(n) (cosh(mu/k) - (k/mu) sinh(mu/k)).

    Lehmer (1938) bounds what the terms past k = N add by 44 pi^2 /
    (225 sqrt 3) N^(-1/2) + (pi sqrt 2 / 75) (N / (n - 1))^(1/2) sinh(pi
    sqrt(2n/3) / N), which needs n >= 2; N is the least value that puts it
    at or below 1/4.  The search starts at N = ceil(pi sqrt(2n/3) / 700),
    where the bound is far above 1/4, so that sinh is never asked for more
    than sinh(700) (a float overflows past sinh(710.5)).

    The bound is evaluated in floats, so it enters the enclosure raised by a
    relative 2^-20.  Every operation in it but sinh is correctly rounded, and
    libm's sinh is within a few ulps, so each step errs by a few parts in
    2^52; sinh's argument is at most 700, which multiplies its relative error
    by at most 700 coth(700) < 2^10 in sinh's value.  The computed bound is
    thus within a relative 2^-30 of the true one.

    _rademacher_sum gives the N terms at a scale 2^W with a bound on their
    error, and the result is the one integer within error + tail of the
    sum.  An enclosure that holds two integers doubles W, and past
    _MAX_BITS raises ArithmeticError.  The first W is the number of bits
    of N plus _GUARD_BITS, where the error stays below 2^-6 at every n
    measured from 2 to 2^21, so the loop does not escalate there.
    """
    if n < 2:
        raise ValueError("Lehmer's tail bound needs n >= 2")
    c = math.pi * math.sqrt(2 * n / 3)
    terms = max(1, math.ceil(c / 700))
    while True:
        tail = 44 * math.pi**2 / (225 * math.sqrt(3) * math.sqrt(terms)) + (
            math.pi * math.sqrt(2) / 75 * math.sqrt(terms / (n - 1)) * math.sinh(c / terms)
        )
        if tail <= 0.25:
            break
        terms += 1
    # the tail in units of 2^-32, rounded up
    tail = math.ceil(tail * (1 + 2**-20) * 2**32)
    bits = terms.bit_length() + _GUARD_BITS
    while bits <= _MAX_BITS:
        value, error = _rademacher_sum(n, terms, bits)
        # the enclosure [lo, hi] in units of 2^-(bits + 32), then its integers
        lo = ((value - error) << 32) - (tail << bits)
        hi = ((value + error) << 32) + (tail << bits)
        lo, hi = -(-lo >> bits + 32), hi >> bits + 32
        if lo == hi:
            return lo
        bits *= 2
    raise ArithmeticError(f"Rademacher's series for p({n}) is not settled at 2^-{_MAX_BITS}")


def _rademacher_sum(n: int, terms: int, bits: int) -> tuple[int, int]:
    """The first terms of Rademacher's series for p(n) (see
    _rademacher_count), summed as an integer at scale 2^bits, and a bound on
    its error in units of 2^-bits.

    Every quantity is a pair (value, error) of arith's fixed point, made by
    its series and its rescale, product and quotient, each with its own
    error rule; a sum or difference of two pairs adds their errors:

    - pi by Machin's formula (fixed_pi) and ln 2 = 2 atanh(1/3)
      (arctan_inverse), each at the highest scale any term needs;
    - mu = pi sqrt(D) / 6 from math.isqrt(D 4^q), which errs by < 1, and
      z = mu / k for term k;
    - e^z = 2^m e^r, with m = floor(z / ln 2) and e^r from a Taylor series
      (exp_taylor); an error d in r adds at most e^r d < 3 d.  e^-z is the
      quotient of 1 by e^z, and cosh z - sinh(z) / z follows with one more
      quotient;
    - S_k(n) is summed over 0 <= l < k alone.  The term of l + k is l's
      times (-1)^(k+1), since its sign is (-1)^k times l's and its angle
      l's plus pi, and l + k solves the congruence when (3l^2 + l) / 2 hits
      the residue shifted by k (3k + 1) / 2: the same residue for odd k,
      so a solution l has weight 2, and the residue shifted by k / 2 for
      even k, which gives that l weight -1;
    - each angle pi a / b, now below pi, is folded into [0, pi/2] in
      integers and its cosine summed as a Taylor series (cos_taylor); the
      angle's error passes to the cosine unchanged, as |cos'| <= 1, and
      the weight multiplies the cosine's error bound.

    Term k runs at scale q = bits + _GUARD_BITS + ceil(mu / (k ln 2)) + 1,
    so e^(mu/k) = 2^m e^r leaves e^z at scale s = q - m >= bits +
    _GUARD_BITS: each term carries only the precision its size needs.  It
    is multiplied by 4 / D, rescaled to scale bits and summed there.  A term
    with no l in its scan is zero and costs only the scan.
    """
    d = 24 * n - 1
    mu_float = math.pi * math.sqrt(d) / 6
    base = bits + _GUARD_BITS
    # the scale of term k; extra bits keep mu's error and m ln 2's below a unit
    scales = [base + math.ceil(mu_float / (k * math.log(2))) + 1 for k in range(1, terms + 1)]
    top, extra = scales[0], math.isqrt(d).bit_length() + 2
    pi, pi_error = fixed_pi(top + extra)
    log2, log2_error = arctan_inverse(3, top + extra, alternating=False)
    log2, log2_error = 2 * log2, 2 * log2_error
    mu, mu_error = product(pi, pi_error, math.isqrt(d << 2 * top), 1, 6 << top + extra)
    value = error = 0
    for k in range(1, terms + 1):
        # l < k alone: l + k solves the congruence when l hits `shifted`,
        # and its term is l's times flip = (-1)^(k+1)
        residue = -n % k
        shifted, flip = (residue - k * (3 * k + 1) // 2) % k, (-1) ** (k + 1)
        ls = [(l, h) for l in range(k) if (h := (3 * l * l + l) // 2 % k) in (residue, shifted)]
        if not ls:
            continue
        q = scales[k - 1]
        shift = top - q
        # S_k(n) at scale q
        pi_q, pi_q_error = rescale(pi, pi_error, 1 << shift + extra)
        s_k = s_k_error = 0
        for l, h in ls:
            weight = (-1) ** l * ((h == residue) + flip * (h == shifted))
            a, b = 6 * l + 1, 6 * k
            if 2 * a > b:
                a, weight = b - a, -weight
            angle, angle_error = rescale(pi_q * a, pi_q_error * a, b)
            c, c_error = cos_taylor(angle, q)
            s_k += weight * c
            s_k_error += abs(weight) * (c_error + angle_error)
        # e^z at scale q - m for z = mu / k at scale q
        z, z_error = rescale(mu, mu_error, k << shift)
        log2_q, log2_q_error = rescale(log2, log2_error, 1 << shift)
        m = (z << extra) // log2_q
        m_log2, m_log2_error = rescale(m * log2_q, m * log2_q_error, 1 << extra)
        exp, exp_error = exp_taylor(z - m_log2, q)
        exp_error += 3 * (z_error + m_log2_error)
        s = q - m
        inverse, inverse_error = quotient(1 << s, 0, exp, exp_error, s)
        # 2 (cosh z - sinh(z) / z) at scale s
        sinh2, sinh2_error = exp - inverse, exp_error + inverse_error
        ratio, ratio_error = quotient(sinh2, sinh2_error, z, z_error, q)
        f, f_error = exp + inverse - ratio, sinh2_error + ratio_error
        # the term (4 / D) S_k(n) (cosh z - sinh(z) / z) at scale bits
        term, term_error = product(s_k, s_k_error, f, f_error, 1 << q)
        term, term_error = rescale(2 * term, 2 * term_error, d)
        term, term_error = rescale(term, term_error, 1 << s - bits)
        value += term
        error += term_error
    return value, error


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
