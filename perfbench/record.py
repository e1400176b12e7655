"""Record the reference output of every benchmark operation.

    python3 perfbench/record.py

Runs each operation once as a fresh `python -m partlab.cli` child and
writes its exit code and the SHA-256 of its stdout to references.json.
Refuses to write when a classical count disagrees with the pentagonal
recurrence.  The stored references pin today's output, so re-record only
when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import RunDir
from workloads import REFERENCES, all_ops, classical_upto, oracle_problems, pentagonal


def main() -> int:
    ops = all_ops()
    p = pentagonal(classical_upto(ops))
    references = {}
    rundir = RunDir()
    try:
        for op in ops:
            child = rundir.run(["-m", "partlab.cli", *op.argv])
            problems = oracle_problems(op, child.stdout, p)
            if problems or child.timed_out:
                print(f"{op.name}: {problems or 'timed out'}", file=sys.stderr)
                return 1
            references[op.name] = {
                "argv": list(op.argv),
                "exit_code": child.exit_code,
                "stdout_sha256": hashlib.sha256(child.stdout).hexdigest(),
            }
            print(f"{op.name}: exit {child.exit_code}, {len(child.stdout)} bytes, {child.seconds:.2f} s")
    finally:
        rundir.close()
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
