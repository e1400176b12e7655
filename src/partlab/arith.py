"""Number theory on part sets, and certified integer fixed point.

A part set with gcd 1 represents every large enough integer; for a finite
set the least such starting point (the Frobenius number plus one) is read
off one bitset of the sums of elements, which Schur's bound lets stop at
a horizon known in advance.  Only the least element of each residue class
mod a_1 enters that scan: a larger one is the smaller plus copies of a_1.
The strict-monotonicity criterion for finite part sets with unrestricted
multiplicities checks coprimality of every (k-1)-element subset, as the
gcd of the prefix before each element with the suffix after it.

Fixed point: a real x is held as a pair (X, e) of integers, X at a scale
2^q and e a bound on |X - x 2^q|.  rescale, product and quotient take and
return such pairs, and fixed_pi, arctan_inverse, exp_taylor and cos_taylor
give constants and series at a scale 2^q; each one's docstring proves its
error rule.  A caller sums errors where it adds or subtracts values, so a
computation built from them carries a bound on its own error.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .setspec import (
    ArithmeticProgression,
    DoublyExponential,
    Finite,
    IntegerSetSpec,
    InvalidSetError,
    Powers,
    WithZero,
)


def gcd_of_set(spec: IntegerSetSpec) -> int:
    """gcd of all elements, computed analytically per variant."""
    if isinstance(spec, Finite):
        return math.gcd(*spec.elements)
    if isinstance(spec, ArithmeticProgression):
        return math.gcd(spec.first, spec.step)
    if isinstance(spec, Powers):
        return 1  # contains base^0 = 1
    if isinstance(spec, DoublyExponential):
        # gcd(b, b^b, b^(b^2), ...) = b: every element is a multiple of b.
        return spec.base
    if isinstance(spec, WithZero):
        raise InvalidSetError("gcd_of_set applies to part sets, not multiplicity sets")
    raise TypeError(f"unknown set variant {type(spec).__name__}")


def coprime_prefix(spec: IntegerSetSpec) -> tuple[Finite, tuple[int, ...]]:
    """Shortest initial segment with gcd 1, and its prefix gcds
    g_i = gcd(a_1, ..., a_i), nonincreasing and ending at 1."""
    g = gcd_of_set(spec)
    if g != 1:
        raise InvalidSetError(f"set has gcd {g}; it contains no coprime subset")
    prefix: list[int] = []
    gcds: list[int] = []
    acc = 0
    for a in spec.iter_elements():
        acc = math.gcd(acc, a)
        prefix.append(a)
        gcds.append(acc)
        if acc == 1:
            return Finite(tuple(prefix)), tuple(gcds)
    raise InvalidSetError("finite set exhausted before reaching gcd 1")


def schur_horizon(parts: Finite) -> int:
    """(a_1 - 1)(a_k - 1) + a_1 for the least and largest elements a_1 and
    a_k.  By Schur's bound (Brauer 1942) every n >= (a_1 - 1)(a_k - 1) is a
    sum of elements when they are positive with gcd 1, so
    frobenius_threshold scans to here, and `analyze` refuses a set whose
    horizon passes the CLI's MAX_N."""
    a1, ak = parts.elements[0], parts.elements[-1]
    return (a1 - 1) * (ak - 1) + a1


def frobenius_threshold(parts: Finite) -> int:
    """Least N such that every n >= N is a nonnegative combination of the
    elements, which must be positive with gcd 1 (else no such N exists).

    One int is the scan: bit n is set when n is a sum of elements, up to
    schur_horizon(parts).  Shifting by a, 2a, 4a, ... closes it under
    adding any number of copies of a.  An element whose residue mod a_1 a
    smaller one already has is that one plus copies of a_1, so it adds no
    sum, and at most a_1 elements are shifted in.  Every n from (a_1 - 1)
    (a_k - 1) on is set by Schur's bound, so the scan needs no further
    horizon, and N is one more than the largest unset bit.
    """
    elems = parts.elements
    if elems[0] < 1 or math.gcd(*elems) != 1:
        raise InvalidSetError("need positive elements with gcd 1")
    horizon = schur_horizon(parts)
    mask = (1 << horizon + 1) - 1
    reachable = 1
    # the least element of each residue class mod a_1, read from the top down
    for a in {a % elems[0]: a for a in reversed(elems)}.values():
        while a <= horizon:
            reachable = (reachable | reachable << a) & mask
            a *= 2
    return (mask ^ reachable).bit_length()


def eventually_strictly_increasing(parts: Finite) -> bool:
    """Criterion for p(n; A, all multiplicities) to be strictly increasing
    from some point on: no prime divides all but one of the elements,
    i.e. every (k-1)-subset is coprime.

    The subset without a_i has the gcd of the prefix gcd before a_i and the
    suffix gcd after it, so the check is two scans, not one per subset.  For
    k = 1 the empty subset has gcd 0, so the answer is False; p is
    eventually constant there.
    """
    elems = parts.elements
    prefix = accumulate(elems, math.gcd, initial=0)
    suffix = list(accumulate(reversed(elems), math.gcd, initial=0))
    return all(math.gcd(p, s) == 1 for p, s in zip(prefix, reversed(suffix[:-1])))


def rescale(x: int, e: int, c: int) -> tuple[int, int]:
    """The pair (x, e) divided by an integer c >= 1: (x // c, e // c + 2).

    The true value is within e of x, so its quotient by c is within e / c
    < e // c + 1 of x / c, and the floor of x / c moves less than 1 more.
    Dividing by c = 2^t lowers the scale by t bits.
    """
    return x // c, e // c + 2


def product(a: int, ea: int, b: int, eb: int, c: int) -> tuple[int, int]:
    """The product of the pairs (a, ea) and (b, eb), divided by an integer
    c >= 1 with rescale: its scale is the sum of theirs, less log2 c.

    True values A and B within ea of a and eb of b have AB - ab = a (B - b)
    + b (A - a) + (A - a)(B - b), so the exact product ab errs by at most
    |a| eb + |b| ea + ea eb.
    """
    return rescale(a * b, abs(a) * eb + abs(b) * ea + ea * eb, c)


def quotient(a: int, ea: int, b: int, eb: int, q: int) -> tuple[int, int]:
    """The pair (a, ea) divided by (b, eb), b > eb >= 0, times 2^q: (a 2^q)
    // b, at a's scale less b's plus q.

    True values A and B within ea of a and eb of b, so B >= b - eb > 0, have
    A / B - a / b = (A - a) / B - a (B - b) / (b B), at most (ea b + |a| eb)
    / (b (b - eb)) in size.  Times 2^q, that errs by less than its floor
    plus 1, and the floor of (a 2^q) / b by less than 1 more.  (Two floors,
    one per term of the sum, would need 3 in place of the 2.)
    """
    return (a << q) // b, ((ea * b + abs(a) * eb) << q) // (b * (b - eb)) + 2


def fixed_pi(q: int) -> tuple[int, int]:
    """pi 2^q by Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), and a
    bound on its error in units of 2^-q.

    Both arctangents are taken at guard bits more than q, where their
    errors weigh 16 and 4, and rescale drops the guard bits.
    """
    guard = q.bit_length() + 4
    a, a_error = arctan_inverse(5, q + guard)
    b, b_error = arctan_inverse(239, q + guard)
    return rescale(16 * a - 4 * b, 16 * a_error + 4 * b_error, 1 << guard)


def arctan_inverse(x: int, q: int, alternating: bool = True) -> tuple[int, int]:
    """atan(1/x) 2^q, or atanh(1/x) 2^q when not alternating, for an integer
    x >= 3, and a bound on its error in units of 2^-q.

    The terms 2^q / ((2j + 1) x^(2j + 1)) are floored exactly, since a floor
    of a floor is the floor of the whole quotient, so each errs by < 1.  The
    series stops at the first zero power 2^q // x^(2j + 1), and the terms it
    leaves out add < 9/8 (< 1 when alternating).
    """
    power, square = (1 << q) // x, x * x
    total = j = 0
    while power:
        term = power // (2 * j + 1)
        total += -term if alternating and j % 2 else term
        power //= square
        j += 1
    return total, j + 2


def exp_taylor(r: int, q: int) -> tuple[int, int]:
    """e^x 2^q for x = r 2^-q in [0, 1], and a bound on its error in units
    of 2^-q.

    Each term is the one before times r // (j 2^q), floored, so its error is
    at most the one before's times x / j, plus 1: never above 2.  The sum
    stops at the first term that floors to 0; the true term there is below
    2, and the ones after it sum to less than it again.
    """
    total = term = 1 << q
    j = 0
    while term:
        j += 1
        term = (term * r >> q) // j
        total += term
    return total, 2 * j + 4


def cos_taylor(x: int, q: int) -> tuple[int, int]:
    """cos(x 2^-q) 2^q for x 2^-q in [0, pi/2], and a bound on its error in
    units of 2^-q.

    Each term is the one before times (x^2 >> q) // ((2j - 1) 2j 2^q),
    floored; as x^2 <= 2.47 the error of each stays below 2.  The series
    alternates with decreasing terms from the first on, so what it leaves
    out after the first term that floors to 0 is below that term's true
    value, which is below 2.
    """
    square = x * x >> q
    total = term = 1 << q
    j = 0
    while term:
        j += 1
        term = (term * square >> q) // ((2 * j - 1) * 2 * j)
        total += -term if j % 2 else term
    return total, 2 * j + 2
