"""The DP kernels: pure Python, run by count_table once a table is dense.

Both kernels update one rolling array of exact integer counts in place,
adding one part's layer to the table.  Keep the loop bodies free of any
abstraction: this is the hot path of every dense table build.
"""

from itertools import islice
from operator import add

BACKEND = "python"


def unbounded_layer(values: list, a: int) -> None:
    """Fold in a part with unrestricted multiplicity (classical recurrence).

    Ascending order makes values[v - a] the already-updated entry, which
    is exactly the unbounded reuse.
    """
    for v in range(a, len(values)):
        values[v] += values[v - a]


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
