"""`python tests/peak.py partlab count --n 5` runs one command as a child, passes its stdout
and stderr through, exits with its exit code and ends stderr with a JSON report of its exit
code, wall time and peak memory.  `python tests/peak.py --checks` runs CHECKS, CI's checks."""

import json
import os
import subprocess
import sys
import tempfile
import time

# ru_maxrss is in bytes on macOS and in KiB elsewhere
_RSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


def measure(argv):
    """Run argv as a child of this process; its exit code, wall time and peak."""
    start = time.perf_counter()
    _, status, usage = os.wait4(os.posix_spawnp(argv[0], argv, os.environ), 0)
    wall_s, peak_mb = round(time.perf_counter() - start, 3), round(usage.ru_maxrss / _RSS_PER_MB, 1)
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall_s, "peak_mb": peak_mb}


# A child's ru_maxrss starts at the high-water mark of the process that
# spawned it, so a caller that may have grown spawns argv through a launcher
def run(argv, **kwargs):
    """`measure` argv under a fresh launcher; the report, with argv's stdout as "out"."""
    done = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, **kwargs)
    *err, report = done.stderr.splitlines(keepends=True)
    sys.stderr.writelines(err)
    return dict(json.loads(report), out=done.stdout)


_P_10000 = (
    "36167251325636293988820471890953695495016030339315650422081868605887952568754066420592310556052906916435144"
)

# (timeout in s, partlab argv, exit code, output check, peak limit in MB):
# an output check is ("==", text) or ("in", text), and None checks nothing
CHECKS = [
    # the installed console script, one count per route: p(100) from the
    # pentagonal row and p(10^4) from Rademacher's series, which table's row
    # p(0..10^4) repeats; b(1000) by Mahler's equation, q(100) (distinct
    # parts) by Glaisher's, p(100) - p(99) by removing part 1
    (20, "count --parts all --n 100", 0, ("==", "190569292\n"), None),
    (20, "count --parts all --n 10000", 0, ("==", f"{_P_10000}\n"), None),
    (20, "table --parts all --upto 10000 --format csv", 0, ("in", f"\n10000,{_P_10000}\n"), None),
    (20, "count --parts pow:2 --n 1000", 0, ("==", "1981471878\n"), None),
    (20, "count --parts all --mults finite:0,1 --n 100", 0, ("==", "444793\n"), None),
    (20, "count --parts all-from:2 --n 100", 0, ("==", "21339417\n"), None),
    # one set, one output: ap:1,1 is printed as all, and a 5000-level zero|
    # ends with one error line, not a RecursionError traceback
    (20, "count --parts ap:1,1 --n 5 --format json", 0, ("in", '"parts": "all"'), None),
    (20, "count --parts all --mults " + "zero|" * 5000 + "all --n 5", 2, None, None),
    # inputs that once filled memory end at once with one error line: an
    # endless anchors or epsilon file (the 16 MiB read cap) and a Frobenius
    # scan whose Schur horizon passes MAX_N.  timeout's 124 fails the check
    # too.  A horizon of MAX_N itself, finite:2,2097151, is scanned as one
    # int of 2^21 + 1 bits in milliseconds
    (20, "count --parts sparse:@/dev/zero --n 5", 2, None, None),
    (20, "sparse /dev/zero", 1, None, None),
    (20, "analyze --parts finite:1000000000,1000000001", 1, None, None),
    (20, "analyze --parts finite:2,2097151", 0, ("in", "frobenius-threshold: 2097150\n"), 32),
    # analyze on the most parts the read cap admits, 1..2^21, and on
    # 2..2^20+1: the criterion is two gcd scans and the Frobenius scan shifts
    # in one part per residue mod a_1, where one gcd per subset and one shift
    # per part ran for hours
    (20, "analyze --parts sparse:@upto-max-n.txt", 0,
     ("in", "frobenius-threshold: 0\neventually-strictly-increasing: yes\n"), 200),
    (20, "analyze --parts sparse:@from-2.txt", 0,
     ("in", "frobenius-threshold: 2\neventually-strictly-increasing: yes\n"), 200),
    # an anchors file at the read cap, 2^21 lines of 8 bytes, is counted
    # within 200 MB (about 160 MB now; 239 MB while Finite sorted a copy of
    # the checked anchors)
    (20, "count --parts sparse:@anchors.txt --n 5", 0, ("==", "0\n"), 200),
    # sparse builds its anchors in one pass over the epsilon table, where a
    # search of the table per anchor took minutes on the 2^16 lines (i, i+1);
    # a table asking for more than 2^21 anchors is refused before any is
    # built, where 1 1000000000 filled memory
    (20, "sparse steps.txt", 0, ("in", "\n65536\n"), 64),
    (20, "sparse huge-steps.txt", 2, None, 32),
    # count computes one value without the row p(0..n): at MAX_N,
    # finite:3,4,5 by Sylvester's quasi-polynomial, dexp:2 with zero|dexp:2
    # on its sparse support, pow:2 by Mahler's sum in binomial moments,
    # which reads no table, and all with nat by Rademacher's series, in
    # integers.  All four peak near 16 MB, where the whole row took 139, 48
    # and 117 MB (and pow:2's table to n // 4 took 42 MB), and the classical
    # row would hold about 1.5 GB; the outputs are the ones the row gives.
    # p(2^21) has 1607 digits, and only an exact value gets its last ones
    (20, "count --parts finite:3,4,5 --mults nat --n 2097152", 0, ("==", "36650597308\n"), 32),
    (20, "count --parts dexp:2 --mults zero|dexp:2 --n 2097152", 0, ("==", "1\n"), 32),
    (20, "count --parts pow:2 --mults nat --n 2097152", 0,
     ("==", "218936033517681432074464250008910363018247543498\n"), 32),
    (20, "count --parts all --mults nat --n 2097152", 0, ("in", "643928116480218491515976\n"), 32),
    # the thin pair dexp:2 with zero|dexp:2 is read as its nonzero entries:
    # verify (slow-growth, to 2^20) peaks near 22 MB and explore at MAX_N
    # near 16 MB, where the 2^20 and 2^21 rows took 37 and 111 MB.  Its JSON
    # writes the 2094990 zeros in chunks as they are generated, near 16 MB,
    # where a list of them and one indented string took 265 MB.  A dense
    # explore costs its row plus two floats per point of the slope: near
    # 46 MB for finite:1000,1001 to 2*10^6, where lists of the points took
    # 223 MB
    (60, "verify --suite all", 0, ("in", "suite slow-growth: PASS"), 30),
    (60, "explore --parts dexp:2 --mults zero|dexp:2 --upto 2097152", 0,
     ("in", "max count: 13 at n=263232\n"), 40),
    (60, "explore --parts dexp:2 --mults zero|dexp:2 --upto 2097152 --format json", 0,
     ("in", '"zero_count": 2094990,'), 40),
    (60, "explore --parts finite:1000,1001 --upto 2000000", 0,
     ("in", "log-log slope over upper half: 1.0070\n"), 100),
]

# the files CHECKS reads, one line per item, written once in check_all's
# directory.  Ranges and maps keep them lazy: every launcher imports this
# module, and its high-water mark is where its child's peak starts
FILES = {
    "anchors.txt": range(10**6, 10**6 + 2**21),
    "upto-max-n.txt": range(1, 2**21 + 1),
    "from-2.txt": range(2, 2**20 + 2),
    "steps.txt": map("{} {}".format, range(1, 2**16 + 1), range(2, 2**16 + 2)),
    "huge-steps.txt": ["1 1000000000"],
}


def check_all():
    """Run CHECKS with the `partlab` on PATH, one line each; the number that failed."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in FILES.items():
            with open(os.path.join(tmp, name), "w") as f:
                f.writelines(f"{line}\n" for line in lines)
        for timeout, args, code, want, limit_mb in CHECKS:
            got = run(["timeout", str(timeout), "partlab", *args.split()], cwd=tmp)
            out_ok = want is None or (got["out"] == want[1] if want[0] == "==" else want[1] in got["out"])
            ok = got["exit"] == code and out_ok and (limit_mb is None or got["peak_mb"] < limit_mb)
            print(f"{'ok' if ok else 'FAIL'}: partlab {args:.100}: exit {got['exit']}, "
                  f"{got['wall_s']:.2f} s, {got['peak_mb']:.1f} MB", flush=True)
            failed += not ok
    return failed


if __name__ == "__main__":
    if sys.argv[1:] == ["--checks"]:
        sys.exit(check_all() > 0)
    report = measure(sys.argv[1:])
    print(json.dumps(report), file=sys.stderr)
    sys.exit(report["exit"])
