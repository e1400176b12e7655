"""The dense DP layers, run by count_table once a table is dense and no
generating-function identity builds it.

Both layers update one rolling array of exact integer counts in place,
adding one part's layer to the table.  The big-integer additions run in
C-level passes (accumulate, map over slices); the Python loops around them
only walk windows or blocks, never single entries.
"""

from itertools import accumulate, islice
from operator import add

BACKEND = "python"

# Entries per residue class that one window of unbounded_layer covers.  A
# pass holds this many new integers beside the old ones; windows of 4096
# raised the peak RSS of a 10^6-entry build by ~0.6 MB over 512.
CHUNK = 512


def unbounded_layer(values: list, a: int) -> None:
    """Fold in a part with unrestricted multiplicity (classical recurrence):
    the new values[v] is values[v] + new values[v - a].

    Along each residue class mod a the new row is the running sum of the
    old one.  With a * a <= len(values) each class is long, so the row is
    walked in windows of a * CHUNK indices and every class gets one
    accumulate pass per window, started from its last entry below the
    window.  Otherwise the classes are short, and the row is walked in
    blocks of a indices instead: each block adds the already-updated block
    before it.
    """
    n = len(values)
    if a * a > n:
        for lo in range(a, n, a):
            values[lo : lo + a] = map(add, values[lo : lo + a], values[lo - a : lo])
        return
    step = a * CHUNK
    for lo in range(a, n, step):
        hi = min(lo + step, n)
        for r in range(lo, min(lo + a, hi)):
            values[r] += values[r - a]
            values[r:hi:a] = accumulate(values[r:hi:a])


def restricted_layer(values: list, offsets: list) -> None:
    """Fold in a part whose admissible positive multiples are `offsets`
    (ascending; the zero multiplicity is the implicit identity term).

    The new values[v] is the old values[v] plus old values[v - off] for
    every offset.  Each offset is one C-level slice pass adding a shifted
    snapshot of the old row.  With one offset the pass reads the old row
    directly: both operands are consumed before the slice is rewritten.
    """
    n = len(values)
    old = values[:] if len(offsets) > 1 else values
    for off in offsets:
        if off >= n:
            break
        values[off:] = map(add, islice(values, off, None), islice(old, n - off))
