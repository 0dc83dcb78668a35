"""Hostile inputs through the command line: each ends with its exit code and
message, within a wall-time and a peak-memory bound.

Every row runs in a child process of its own, one at a time, under
RLIMIT_AS and RLIMIT_CPU set in the child before it starts (preexec_fn), so
the limits bind that child only; its peak resident set comes from os.wait4
in the small launcher process that starts it.  A row
names the generator of its input file, the command line, the exit code, a
fragment of stderr (of stdout on exit 0), and the two bounds, which sit
well above what the rows take on a 2-core VM.  Rows that take under a
second there run in tier-1; the full table runs from the repository root
with

    PYTHONPATH=src python tests/test_hostile.py
"""

import os
import subprocess
import sys
import tempfile
from math import comb

import pytest

import toricpick
from families import box, cube, dump_polytope, simplex, times
from test_count_slabs import primitive_polygon
from test_vertex_walk import empty_cube_system
from toricpick.polytope import HPolytope

# address space granted to each child: far above every row's peak, so a row
# that grows without bound fails with a MemoryError, not by the machine's
# out-of-memory killer
ADDRESS_SPACE = 2 ** 31

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(toricpick.__file__)))

# A child's ru_maxrss counts the memory of the process it was forked or
# spawned from, so a row's child is started by this small fresh interpreter,
# not by the test process.  argv: address space, CPU seconds, stdout and
# stderr paths, then the command; it prints exit code, wall s and peak kB.
LAUNCHER = """
import os, resource, subprocess, sys, time
space, cpu = int(sys.argv[1]), int(sys.argv[2])
def limit():
    resource.setrlimit(resource.RLIMIT_AS, (space, space))
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
with open(sys.argv[3], "wb") as out, open(sys.argv[4], "wb") as err:
    start = time.perf_counter()
    child = subprocess.Popen(sys.argv[5:], stdout=out, stderr=err, preexec_fn=limit)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    # reaped here, so Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, wall, usage.ru_maxrss)
"""


def polytope_file(make):
    return lambda: dump_polytope(make())


# name: (generator of the file text, argv with FILE for its path, exit code,
#        message fragment, wall-time bound in s, peak-RSS bound in MB, fast)
ROWS = {
    "20-cube, walk budget": (
        polytope_file(lambda: cube(20)), ["verify", "pick", "FILE"], 2,
        "vertex walk reached 10000 charts with more to visit", 8, 200, False),
    "14-cube, walk budget": (
        polytope_file(lambda: cube(14)), ["verify", "pick", "FILE"], 2,
        "vertex walk reached 10000 charts with more to visit", 5, 120, True),
    "empty system, m = 27": (
        polytope_file(lambda: empty_cube_system(6, 15)), ["compute", "count", "FILE"], 2,
        "inequality system has no solution (empty polytope)", 2, 40, True),
    "one facet in dimension 4000": (
        polytope_file(lambda: HPolytope(4000, [((1,) + (0,) * 3999, 0)])),
        ["compute", "count", "FILE"], 2, "normals do not span; direction (0, 1, 0, ", 2, 40,
        True),
    "JSON nested 10^5 deep": (
        lambda: "[" * 10 ** 5 + "]" * 10 ** 5, ["compute", "count", "FILE"], 2,
        "invalid JSON: maximum recursion depth exceeded", 2, 40, True),
    "lattice 1936-gon, counted": (
        polytope_file(lambda: primitive_polygon(28)[0]), ["compute", "count", "FILE"], 0,
        '"value": 137858', 8, 50, False),
    "prism over the 1936-gon, 0..100, counted": (
        polytope_file(lambda: times(primitive_polygon(28)[0], box((0,), (100,)))),
        ["compute", "count", "FILE"], 0, '"value": 13923703652', 15, 600, False),
    "4-simplex dilated 10^4, count budget": (
        polytope_file(lambda: simplex(4, 10 ** 4)), ["compute", "count", "FILE"], 2,
        "over the limit of 1000000", 2, 40, True),
    "tetrahedron dilated 10^300, count budget": (
        polytope_file(lambda: simplex(3, 10 ** 300)), ["compute", "count", "FILE"], 2,
        "over the limit of 1000000", 2, 40, True),
    "50-simplex, face budget": (
        polytope_file(lambda: simplex(50)), ["verify", "pick", "FILE"], 2,
        "face order may hold about", 2, 40, True),
    "26-simplex, partition 1^26, answered": (
        polytope_file(lambda: simplex(26)),
        ["compute", "chern", "FILE", "--partition", ",".join(["1"] * 26)], 0,
        '"value": "%d"' % 27 ** 26, 2, 40, True),
    "26-simplex, partition 13,13, answered": (
        polytope_file(lambda: simplex(26)), ["compute", "chern", "FILE", "--partition", "13,13"],
        0, '"value": "%d"' % comb(27, 13) ** 2, 2, 40, True),
    "26-simplex, partition 26, answered": (
        polytope_file(lambda: simplex(26)), ["compute", "chern", "FILE", "--partition", "26"], 0,
        '"value": "27"', 2, 40, True),
    "60-simplex, partition 1^60, answered": (
        polytope_file(lambda: simplex(60)),
        ["compute", "chern", "FILE", "--partition", ",".join(["1"] * 60)], 0,
        '"value": "%d"' % 61 ** 60, 2, 40, True),
    "verify face-todd on the 9-cube": (
        polytope_file(lambda: cube(9)), ["verify", "face-todd", "FILE"], 0,
        '"holds": true', 10, 80, False),
    "80-simplex, partition 80, Chern budget": (
        polytope_file(lambda: simplex(80)), ["compute", "chern", "FILE", "--partition", "80"], 2,
        "about 103680000 steps (81 vertices in dimension 80), over the limit of 100000000", 2,
        40, True),
}
FAST = sorted(name for name, row in ROWS.items() if row[6])


def run_row(name, workdir):
    """(exit code, stdout, stderr, wall seconds, peak RSS in MB) of one row."""
    make, argv, _, _, seconds, _, _ = ROWS[name]
    path, out, err = (os.path.join(workdir, f) for f in ("input.json", "out.txt", "err.txt"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(make())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "toricpick"] + [path if a == "FILE" else a for a in argv]
    report = subprocess.run([sys.executable, "-c", LAUNCHER, str(ADDRESS_SPACE),
                             str(seconds + 1), out, err] + command,
                            env=env, capture_output=True, text=True, check=True,
                            timeout=10 * seconds).stdout
    code, wall, rss = report.split()
    texts = []
    for stream in (out, err):
        with open(stream, encoding="utf-8") as handle:
            texts.append(handle.read())
    # ru_maxrss is in kB on Linux
    return (int(code),) + tuple(texts) + (float(wall), int(rss) / 1024)


def check_row(name, workdir):
    _, _, code, fragment, seconds, megabytes, _ = ROWS[name]
    got, out, err, wall, rss = run_row(name, workdir)
    assert got == code, (name, got, err[-500:])
    assert fragment in (out if code == 0 else err), (name, out[-500:], err[-500:])
    assert wall < seconds, (name, wall)
    assert rss < megabytes, (name, rss)
    return wall, rss


@pytest.mark.parametrize("name", FAST)
def test_hostile_input(name, tmp_path):
    check_row(name, str(tmp_path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for name in ROWS:
            wall, rss = check_row(name, workdir)
            print("%-42s exit %d  %6.2f s  %6.1f MB" % (name, ROWS[name][2], wall, rss))
    print("%d hostile inputs end as expected" % len(ROWS))
