"""Byte-for-byte regression of the command line on the bundled corpus.

tests/data/golden_corpus.json holds the argument list, exit code, standard
output and standard error of every verify/compute command on corpus/ (JSON
format; --breakdown, --u at the second generic vector, gysin on every facet,
chern for every partition), of `verify agw` and of `corpus corpus/`;
tests/data/golden_corpus_table.json holds the same commands in table format.
A speed-up must not change a byte of any of them, and every recorded line
is read by the plain parser path, with no argparse pass.  After a
deliberate change of output, rewrite both files from the repository root
with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

from families import CORPUS_NAMES, get
from toricpick import cli
from toricpick.localization import choose_generic, partitions_of
from toricpick.polytope import enumerate_vertices

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# format: the file that records every command in it
GOLDEN = {"json": os.path.join(HERE, "data", "golden_corpus.json"),
          "table": os.path.join(HERE, "data", "golden_corpus_table.json")}


def command_set(fmt):
    """Every argument list in one format, with corpus paths relative to the
    repository root."""
    commands = [["verify", "agw"], ["corpus", "corpus"]]
    for name in CORPUS_NAMES:
        p = get(name)
        n, m = p.dim, len(p.facets)
        path = "corpus/%s.json" % name
        charts = enumerate_vertices(p)
        u2 = choose_generic(charts, exclude=(tuple(choose_generic(charts)),))
        u_flag = ["--u", ",".join(str(x) for x in u2)]
        for kind in ("pick", "todd", "face-todd", "tetrahedron", "signature"):
            commands.append(["verify", kind, path])
        for kind in ("pick", "todd", "signature"):
            commands.append(["verify", kind, path] + u_flag)
        for omega in partitions_of(n):
            commands.append(["compute", "chern", path, "--partition",
                             ",".join(map(str, omega)), "--breakdown"])
        commands.append(["compute", "count", path, "--faces"])
        commands.append(["compute", "hvector", path])
        commands.append(["compute", "volume", path])
        for kind in ("volume", "signature-twisted", "todd-twisted"):
            commands.append(["compute", kind, path, "--breakdown"])
            commands.append(["compute", kind, path, "--breakdown"] + u_flag)
        for facet in range(m):
            commands.append(["compute", "gysin", path, "--facet", str(facet),
                             "--power", str(n), "--breakdown"])
    return [argv + ["--format", fmt] for argv in commands]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def recorded(fmt):
    with open(GOLDEN[fmt], "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_recorded(fmt):
    rows = recorded(fmt)
    assert [r["argv"] for r in rows] == command_set(fmt)
    for expected in rows:
        assert run(expected["argv"]) == expected, " ".join(expected["argv"])


def test_corpus_commands_match_the_recorded_output(monkeypatch):
    monkeypatch.chdir(ROOT)
    check_recorded("json")


def test_corpus_commands_match_the_recorded_table(monkeypatch):
    monkeypatch.chdir(ROOT)
    check_recorded("table")


def test_every_recorded_command_takes_the_plain_parser_path():
    """A change that sent these lines back to argparse would keep every
    output and lose the speed of reading them from the action table."""
    for fmt in GOLDEN:
        for expected in recorded(fmt):
            argv = expected["argv"]
            assert cli._read_plain(argv[0], argv[1:]) is not None, " ".join(argv)


def test_recorded_commands_run_without_argparse(monkeypatch):
    def refuse(argv=None, namespace=None):
        raise AssertionError("argparse parsed %r" % (argv,))

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    for expected in recorded("json")[::23] + recorded("table")[11::23]:
        assert run(expected["argv"]) == expected, " ".join(expected["argv"])


if __name__ == "__main__":
    os.chdir(ROOT)
    for fmt, path in GOLDEN.items():
        rows = [run(argv) for argv in command_set(fmt)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        print("wrote %d commands to %s" % (len(rows), path), file=sys.stderr)
