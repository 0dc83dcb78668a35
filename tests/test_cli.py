"""Command line behavior: file parsing, report schema, formats, exit codes.

The command line parser is checked against argparse itself: every line
must give the namespace, or the exit code, stdout and stderr, that the
top-level parser's parse_args gives.  Run as a script, the differential
test sweeps FULL_ARGV seeded command lines:

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

import toricpick
from families import (CORPUS_DIR, CORPUS_NAMES, P112, dump_polytope, get,
                      simplex)
from toricpick import cli, invariants, localization
from toricpick.errors import InputError, RouteDisagreementError
from toricpick.invariants import Report, check_pick
from toricpick.polytope import FACE_BUDGET
from toricpick.polytope import HPolytope


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def corpus_file(name):
    return os.path.join(CORPUS_DIR, name + ".json")


def test_format_rational():
    from fractions import Fraction
    assert cli.format_rational(Fraction(3, 4)) == "3/4"
    assert cli.format_rational(Fraction(8, 4)) == "2"
    assert cli.format_rational(5) == "5"
    assert cli.format_rational(Fraction(-1, 2)) == "-1/2"


def test_dump_load_round_trip(tmp_path):
    p = get("hirzebruch")
    path = write(tmp_path, "h.json", dump_polytope(p))
    q = cli.load_polytope(path)
    assert q == p and q.name == "hirzebruch"
    nameless = HPolytope(1, [((1,), 0), ((-1,), -2)])
    path2 = write(tmp_path, "n.json", dump_polytope(nameless))
    r = cli.load_polytope(path2)
    assert r == nameless and r.name is None


def test_corpus_names_match_the_files():
    stems = [os.path.splitext(f) for f in os.listdir(CORPUS_DIR)]
    assert sorted(CORPUS_NAMES) == sorted(stem for stem, ext in stems if ext == ".json")


def test_bundled_corpus_files_in_sync():
    """Each bundled file is the canonical dump of what it parses to."""
    for path in [corpus_file(name) for name in CORPUS_NAMES] + [P112]:
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == dump_polytope(cli.load_polytope(path)), path


def test_load_rejects_malformed_files(tmp_path):
    bad = [
        ("not json", "{"),
        ("not object", "[1, 2]"),
        ("unknown key", '{"dim": 1, "facets": [], "extra": 1}'),
        ("missing keys", '{"name": "x"}'),
        ("bool dim", '{"dim": true, "facets": [{"normal": [1], "offset": 0}]}'),
        ("float offset",
         '{"dim": 1, "facets": [{"normal": [1], "offset": 0.5}, {"normal": [-1], "offset": -1}]}'),
        ("string entry",
         '{"dim": 1, "facets": [{"normal": ["1"], "offset": 0}, {"normal": [-1], "offset": -1}]}'),
        ("facet keys", '{"dim": 1, "facets": [{"normal": [1]}]}'),
        ("non-primitive", '{"dim": 2, "facets": [{"normal": [2, 4], "offset": 0}]}'),
    ]
    for label, text in bad:
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(InputError):
            cli.load_polytope(path)
    with pytest.raises(InputError):
        cli.load_polytope(str(tmp_path / "missing.json"))


# the stderr of `compute count FILE` (exit 2) on each malformed file; the
# other three facets complete a unit square, so only the first one is at
# fault.  An entry that is not an integer is named by HPolytope behind the
# file name, in the words a library caller gets (test_polytope.BOOL_GATES)
SQUARE_REST = ('{"normal": [0, 1], "offset": 0}, {"normal": [-1, 0], "offset": -1}, '
               '{"normal": [0, -1], "offset": -1}')
MALFORMED = {
    "bool entry": ('{"normal": [true, 0], "offset": 0}',
                   "facet 0 normal entry True is not an integer"),
    "float entry": ('{"normal": [1.0, 0], "offset": 0}',
                    "facet 0 normal entry 1.0 is not an integer"),
    "string entry": ('{"normal": ["1", 0], "offset": 0}',
                     "facet 0 normal entry '1' is not an integer"),
    "null entry": ('{"normal": [1, null], "offset": 0}',
                   "facet 0 normal entry None is not an integer"),
    "bool offset": ('{"normal": [1, 0], "offset": false}',
                    "facet 0 offset False is not an integer"),
    "scalar normal": ('{"normal": 5, "offset": 0}', "facet 0 normal must be a list"),
    "dict normal": ('{"normal": {"x": 1}, "offset": 0}', "facet 0 normal must be a list"),
    "third key": ('{"normal": [1, 0], "offset": 0, "label": "a"}',
                  'facet 0 must be an object with exactly "normal" and "offset"'),
    "no offset": ('{"normal": [1, 0]}',
                  'facet 0 must be an object with exactly "normal" and "offset"'),
    "duplicate normal": ('{"normal": [0, 1], "offset": 0}', "duplicate facet normal (0, 1)"),
    "zero normal": ('{"normal": [0, 0], "offset": 0}', "zero facet normal"),
    "non-primitive": ('{"normal": [2, 0], "offset": 0}',
                      "facet normal (2, 0) is not primitive (gcd 2)"),
    "wrong length": ('{"normal": [1, 0, 0], "offset": 0}',
                     "normal (1, 0, 0) has length 3, expected 2"),
    "long integer": ('{"normal": [1, 0], "offset": %s}' % ("9" * 4301), None),
}
WHOLE_FILE = {
    "string dim": ('{"dim": "2", "facets": [{"normal": [1, 0], "offset": 0}]}',
                   "polytope dimension '2' is not an integer"),
    "deep nesting": ("[" * 10 ** 5 + "]" * 10 ** 5,
                     "invalid JSON: maximum recursion depth exceeded while decoding "
                     "a JSON array from a unicode string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(WHOLE_FILE))
def test_malformed_file_messages(case, tmp_path, capsys):
    if case in WHOLE_FILE:
        text, message = WHOLE_FILE[case]
    else:
        first, message = MALFORMED[case]
        text = '{"dim": 2, "facets": [%s, %s]}' % (first, SQUARE_REST)
    if message is None:
        # past 4300 digits the reason is the interpreter's own, whose
        # wording differs between Python releases
        with pytest.raises(ValueError) as limit:
            int("9" * 4301)
        message = "invalid JSON: %s" % limit.value
    path = write(tmp_path, "bad.json", text)
    assert cli.main(["compute", "count", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s: %s\n" % (path, message))


# bytes json cannot take: a byte order mark that is not UTF-8, and arrays
# nested past the parser's recursion limit
UNREADABLE = {"non-utf8": b'\xff\xfe{"dim": 1}', "nested": b"[" * 200000}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_files_exit_two_naming_the_path(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(UNREADABLE[case])
    assert cli.main(["verify", "pick", str(path), "--format", "json"]) == 2
    assert capsys.readouterr().err.startswith("error: %s: " % path)
    target = tmp_path / "corpus"
    target.mkdir()
    (target / "bad.json").write_bytes(UNREADABLE[case])
    shutil.copy(corpus_file("square1"), target)
    assert cli.main(["corpus", str(target), "--format", "json"]) == 2
    assert capsys.readouterr().err.startswith("error: %s: " % (target / "bad.json"))


# well-formed JSON whose fields have the wrong shape
MISSHAPEN = {
    "name": ('{"name": 5, "dim": 1, "facets": [{"normal": [1], "offset": 0}]}',
             "name must be a string"),
    "no facets": ('{"dim": 1, "facets": []}', "facets must be a non-empty list"),
    "scalar normal": ('{"dim": 1, "facets": [{"normal": 3, "offset": 0}]}',
                      "facet 0 normal must be a list"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN))
def test_misshapen_fields_exit_two_naming_the_file(case, tmp_path, capsys):
    text, message = MISSHAPEN[case]
    path = write(tmp_path, "bad.json", text)
    assert cli.main(["verify", "pick", path, "--format", "json"]) == 2
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, message)


# normals that do not span: a corank-1 pair in the plane, whose line has one
# primitive direction up to sign, and a corank-2 pair in space, whose printed
# direction is the first of the kernel plane the elimination meets
NO_SPAN = {
    "corank1": (2, [((1, -2), 0), ((-1, 2), -3)], "(2, 1)"),
    "corank2": (3, [((2, 3, 1), 0), ((-2, -3, -1), -1)], "(3, -2, 0)"),
}


@pytest.mark.parametrize("case", sorted(NO_SPAN))
def test_unbounded_direction_message(case, tmp_path, capsys):
    dim, facets, direction = NO_SPAN[case]
    path = write(tmp_path, "slab.json", dump_polytope(HPolytope(dim, facets)))
    assert cli.main(["verify", "pick", path, "--format", "json"]) == 2
    assert capsys.readouterr().err == (
        "error: %s: normals do not span; direction %s is unbounded\n" % (path, direction))


def test_one_facet_in_dimension_4000_exits_two_at_once(tmp_path):
    """A system of m < n facets bounds nothing; the first-vertex search finds
    the unbounded direction in the first m + 1 coordinates, not the whole
    n x (n + m) frame."""
    n = 4000
    path = write(tmp_path, "slab.json", dump_polytope(HPolytope(n, [((1,) + (0,) * (n - 1), 0)])))
    package_root = os.path.dirname(os.path.dirname(toricpick.__file__))
    env_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "toricpick", "compute", "count", path],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=env_path))
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stderr == "error: %s: normals do not span; direction %s is unbounded\n" % (
        path, (0, 1) + (0,) * (n - 2))


def test_verify_pick_json_output(capsys):
    code = cli.main(["verify", "pick", corpus_file("square1"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"identity", "polytope", "lhs", "rhs", "holds",
                         "breakdown", "generic_vectors"}
    assert data["identity"] == "pick"
    assert data["polytope"] == "square1"
    assert data["lhs"] == "1" and data["rhs"] == "1"
    assert data["holds"] is True
    assert data["generic_vectors"] == [[1, 2], [1, 3]]
    # round trip: the printed report is exactly its own parse
    assert data == json.loads(cli.render_json(cli.report_to_dict(check_pick(get("square1")))))


def test_output_is_byte_stable(capsys):
    cli.main(["verify", "pick", corpus_file("triangle2"), "--format", "json"])
    first = capsys.readouterr().out
    cli.main(["verify", "pick", corpus_file("triangle2"), "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_table_output(capsys):
    code = cli.main(["verify", "tetrahedron", corpus_file("simplex3_1"),
                     "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lhs        1/2" in out
    assert "holds      yes" in out


@pytest.mark.parametrize("tty,fmt", [(True, "table"), (False, "json")])
def test_default_format_is_table_on_a_terminal_else_json(tty, fmt, capsys, monkeypatch):
    """Without --format each command prints what --format table prints when
    stdout is a terminal, and what --format json prints otherwise."""
    for argv in (["verify", "pick", corpus_file("square1")],
                 ["compute", "hvector", corpus_file("prism")],
                 ["corpus", CORPUS_DIR]):
        assert cli.main(argv + ["--format", fmt]) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys.stdout, "isatty", lambda: tty)
        assert cli.main(argv) == 0
        assert capsys.readouterr() == expected, argv
        monkeypatch.undo()
    assert expected.out.startswith("file ") if tty else json.loads(expected.out)["all_hold"]


def test_verify_rejects_non_delzant(capsys):
    code = cli.main(["verify", "pick", P112])
    err = capsys.readouterr().err
    assert code == 2
    assert "(0, 1)" in err and "-2" in err


def test_one_delzant_message_for_every_localized_command(capsys):
    """Every command that localizes passes the one Delzant gate; those
    that only walk, count or triangulate still answer."""
    localized = [["verify", kind, P112] for kind in ("pick", "todd", "face-todd", "signature")]
    localized += [["compute", "chern", P112, "--partition", "2"],
                  ["compute", "gysin", P112, "--facet", "0", "--power", "2"],
                  ["compute", "volume", P112, "--breakdown"],
                  ["compute", "todd-twisted", P112],
                  ["compute", "signature-twisted", P112]]
    for argv in localized:
        assert cli.main(argv + ["--format", "json"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: polytope is not Delzant: vertex (0, 1) has det -2\n", argv
    for kind in ("count", "hvector", "volume"):
        assert cli.main(["compute", kind, P112, "--format", "json"]) == 0, kind
        assert json.loads(capsys.readouterr().out)["kind"] == kind


def test_verify_refuses_the_50_simplex_before_localizing(tmp_path, capsys):
    """The face budget refuses it before the degree-50 classes are localized."""
    path = write(tmp_path, "simplex50.json", dump_polytope(simplex(50)))
    start = time.perf_counter()
    assert cli.main(["verify", "todd", path, "--format", "json"]) == 2
    assert time.perf_counter() - start < 5
    assert "over the limit of %d" % FACE_BUDGET in capsys.readouterr().err


def test_compute_refuses_the_50_simplex_before_localizing(tmp_path, capsys):
    """The twisted genera and the volume breakdown localize once, after the
    same face budget as verify; they once ran for seconds before answering."""
    path = write(tmp_path, "simplex50.json", dump_polytope(simplex(50)))
    for argv in (["compute", "todd-twisted", path], ["compute", "signature-twisted", path],
                 ["compute", "volume", path, "--breakdown"]):
        start = time.perf_counter()
        assert cli.main(argv + ["--format", "json"]) == 2, argv
        assert time.perf_counter() - start < 1, argv
        err = capsys.readouterr().err
        assert "face order may hold" in err and "over the limit of %d" % FACE_BUDGET in err, argv


def test_commands_that_read_faces_refuse_the_16_simplex_at_once(tmp_path, capsys):
    """The face lattice lays itself out on first read; each command that
    reads it is refused there, on the face budget, before other work."""
    path = write(tmp_path, "simplex16.json", dump_polytope(simplex(16)))
    for argv in (["verify", "face-todd"], ["verify", "pick"],
                 ["compute", "hvector"], ["compute", "volume"]):
        start = time.perf_counter()
        assert cli.main(argv + [path, "--format", "json"]) == 2, argv
        assert time.perf_counter() - start < 1, argv
        err = capsys.readouterr().err
        assert "face order may hold" in err and "over the limit of %d" % FACE_BUDGET in err, argv


def test_compute_chern_answers_1_26_and_refuses_80_at_once(tmp_path, capsys):
    """c_1^26 of CP^26 is 27^26; (80) on the 80-simplex is the first (n)
    route one's estimate refuses: 81 vertices times 2 * 80^2 products on 100
    words."""
    path = write(tmp_path, "simplex26.json", dump_polytope(simplex(26)))
    start = time.perf_counter()
    assert cli.main(["compute", "chern", path, "--partition", ",".join(["1"] * 26),
                     "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["value"] == str(27 ** 26)
    path = write(tmp_path, "simplex80.json", dump_polytope(simplex(80)))
    start = time.perf_counter()
    assert cli.main(["compute", "chern", path, "--partition", "80", "--format", "json"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "about 103680000 steps (81 vertices in dimension 80)" in err
    assert "over the limit of %d" % localization.CHERN_BUDGET in err


def test_verify_agw(capsys):
    code = cli.main(["verify", "agw", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["holds"] is True
    assert data["polytope"] == "universal"
    assert cli.main(["verify", "agw", corpus_file("square1")]) == 2


def test_verify_u_override(capsys):
    code = cli.main(["verify", "todd", corpus_file("hirzebruch"),
                     "--u", "1,5", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["generic_vectors"][0] == [1, 5]
    assert data["generic_vectors"][1] != [1, 5]
    assert cli.main(["verify", "todd", corpus_file("hirzebruch"), "--u", "1,0"]) == 2
    assert cli.main(["verify", "todd", corpus_file("hirzebruch"), "--u", "1"]) == 2
    assert cli.main(["verify", "todd", corpus_file("hirzebruch"), "--u", "a,b"]) == 2


def test_verify_shape_mismatch(capsys):
    assert cli.main(["verify", "tetrahedron", corpus_file("cube1")]) == 2


def test_identity_failure_exits_one(capsys, monkeypatch):
    def fake_check(p, u=None):
        return Report("pick", p.name, 0, 1, False, {}, ())
    monkeypatch.setitem(cli.CHECKS, "pick", (fake_check, True))
    assert cli.main(["verify", "pick", corpus_file("square1")]) == 1


@pytest.mark.parametrize("argv", [["count", P112], ["volume", P112],
                                  ["hvector", corpus_file("square1")]])
def test_compute_kinds_without_a_vector_take_no_u(argv, capsys):
    """count and hvector never localize, nor volume without --breakdown,
    so --u is refused before the file is read, whatever it holds."""
    for u in ("1,3", "1,0"):
        assert cli.main(["compute", *argv, "--u", u]) == 2
        assert capsys.readouterr().err == "error: --u does not apply to compute %s\n" % argv[0]


@pytest.mark.parametrize("argv,option", [
    (["volume", P112, "--faces"], "faces"),
    (["chern", P112, "--partition", "3", "--faces"], "faces"),
    (["hvector", P112, "--partition", "3"], "partition"),
    (["gysin", P112, "--facet", "0", "--power", "2", "--partition", "2"], "partition"),
    (["count", P112, "--facet", "0"], "facet"),
    (["todd-twisted", P112, "--power", "2"], "power"),
], ids=["faces", "faces-on-chern", "partition", "partition-on-gysin", "facet", "power"])
def test_compute_refuses_options_its_kind_never_reads(argv, option, capsys):
    """--faces is read by count alone, --partition by chern, --facet and
    --power by gysin; like --u, each is refused elsewhere before the file
    is read (a non-Delzant file here), even as 0."""
    assert cli.main(["compute", *argv]) == 2
    assert capsys.readouterr().err == "error: --%s does not apply to compute %s\n" % (
        option, argv[0])


def test_verify_face_todd_takes_no_u(capsys):
    assert cli.main(["verify", "face-todd", corpus_file("square1"), "--u", "1,2"]) == 2
    assert capsys.readouterr().err == "error: --u does not apply to verify face-todd\n"


@pytest.mark.parametrize("argv,option,text", [
    (["verify", "todd", "hirzebruch", "--u", "1,a"], "u", "1,a"),
    (["compute", "volume", "hirzebruch", "--breakdown", "--u", "1.5,2"], "u", "1.5,2"),
    (["compute", "chern", "hirzebruch", "--partition", "1,,1"], "partition", "1,,1"),
], ids=["verify-u", "compute-u", "partition"])
def test_option_integers_are_parsed_by_one_reader(argv, option, text, capsys):
    """--u and --partition are read by one parser of comma separated integers,
    which names the option and its text; what the integers must be is the
    library's to say."""
    argv[2] = corpus_file(argv[2])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --%s must be comma separated integers, got %r\n" % (option, text))


def test_exact_values_print_past_the_digit_limit_that_parsing_keeps(tmp_path, capsys):
    """The volume of x, y >= 0, x + y <= 10^2200 has 4400 digits, past the
    interpreter's default limit of 4300 on int to str: main prints it whole,
    yet --u, like the file, is still parsed under the limit (quadratic time
    past it), and the limit main found is the one it leaves."""
    k = 10 ** 2200
    path = write(tmp_path, "long.json", dump_polytope(
        HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -k)])))
    limit = getattr(sys, "get_int_max_str_digits", int)()
    assert cli.main(["compute", "volume", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "5" + "0" * 4399
    if limit:  # none on Python 3.10.0-3.10.6, nor under PYTHONINTMAXSTRDIGITS=0
        assert cli.main(["verify", "todd", path, "--u", "1," + "9" * 4301]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --u must be comma separated integers, got '1,999")
    assert getattr(sys, "get_int_max_str_digits", int)() == limit


def test_compute_chern(capsys):
    code = cli.main(["compute", "chern", corpus_file("triangle1"),
                     "--partition", "1,1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["value"] == "9"
    code = cli.main(["compute", "chern", corpus_file("triangle1"),
                     "--partition", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "3"
    assert cli.main(["compute", "chern", corpus_file("triangle1")]) == 2
    assert cli.main(["compute", "chern", corpus_file("triangle1"),
                     "--partition", "3"]) == 2
    assert cli.main(["compute", "chern", corpus_file("triangle1"),
                     "--partition", "x"]) == 2
    capsys.readouterr()
    assert cli.main(["compute", "chern", corpus_file("cube1"),
                     "--partition", "1,2"]) == 2
    assert "weakly decreasing" in capsys.readouterr().err


def test_compute_chern_route_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(localization, "_chern_fixed_point", lambda omega, charts, weights: 4)
    assert cli.main(["compute", "chern", corpus_file("triangle1"), "--partition", "2",
                     "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: fixed point route 4 disagrees with class route 3")


def test_compute_gysin(capsys):
    code = cli.main(["compute", "gysin", corpus_file("simplex3_1"),
                     "--facet", "1", "--power", "3", "--breakdown",
                     "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["value"] == "1"
    assert data["breakdown"]["monomial_route"] == "1"
    assert data["breakdown"]["triple_product_route"] == "1"
    assert cli.main(["compute", "gysin", corpus_file("simplex3_1"),
                     "--facet", "9", "--power", "3"]) == 2
    assert cli.main(["compute", "gysin", corpus_file("simplex3_1"),
                     "--facet", "0", "--power", "2"]) == 2
    assert cli.main(["compute", "gysin", corpus_file("simplex3_1")]) == 2


def test_compute_count_faces(capsys):
    code = cli.main(["compute", "count", corpus_file("square2"), "--faces",
                     "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["value"] == 9
    assert len(data["faces"]) == 9
    dims = sorted(f["dim"] for f in data["faces"])
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_compute_count_faces_table(capsys):
    code = cli.main(["compute", "count", corpus_file("square2"), "--faces",
                     "--format", "table"])
    assert code == 0
    assert capsys.readouterr().out == "\n".join([
        "polytope   square2",
        "kind       count",
        "value      9",
        "faces",
        "  dim  facets             closed   relint",
        "  0    0,1                     1        1",
        "  0    0,3                     1        1",
        "  0    1,2                     1        1",
        "  0    2,3                     1        1",
        "  1    0                       3        1",
        "  1    1                       3        1",
        "  1    2                       3        1",
        "  1    3                       3        1",
        "  2    -                       9        1",
    ]) + "\n"


def test_compute_hvector(capsys):
    code = cli.main(["compute", "hvector", corpus_file("prism"),
                     "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["value"] == [1, 2, 2, 1]
    assert data["breakdown"]["f_vector"] == [6, 9, 5, 1]
    assert data["breakdown"]["signature"] == 0


def test_compute_hvector_table(capsys):
    code = cli.main(["compute", "hvector", corpus_file("prism"), "--format", "table"])
    assert code == 0
    assert capsys.readouterr().out == "\n".join([
        "polytope   prism",
        "kind       hvector",
        "value      [1, 2, 2, 1]",
        "breakdown",
        "  f_vector                 [6, 9, 5, 1]",
        "  signature                0",
    ]) + "\n"


def test_compute_volume_breakdown(capsys):
    code = cli.main(["compute", "volume", corpus_file("hirzebruch"),
                     "--breakdown", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["value"] == "3/2"
    assert data["breakdown"]["localization_total"] == "3/2"


def test_compute_twisted_genera(capsys, monkeypatch):
    """The per-vertex terms are built only when --breakdown prints them."""
    asked, localize = [], invariants.localize
    monkeypatch.setattr(invariants, "localize", lambda *args, terms=False:
                        asked.append(terms) or localize(*args, terms=terms))
    code = cli.main(["compute", "todd-twisted", corpus_file("square1"),
                     "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["value"] == "4" and "breakdown" not in data
    code = cli.main(["compute", "signature-twisted", corpus_file("square1"),
                     "--breakdown", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["value"] == "1"
    assert len(data["breakdown"]["per_vertex"]) == 4
    assert asked == [False, True]


# the calls counted per command below: the Delzant gate, the check of a
# given vector, the read of the generic vectors and the search for one
COUNTED = ("require_delzant", "_vector", "chart_weights", "choose_generic")


@pytest.mark.parametrize("argv,counts", [
    (["verify", "todd", "hirzebruch"], (3, 0, 1, 2)),
    (["verify", "todd", "hirzebruch", "--u", "1,3"], (2, 1, 1, 1)),
    (["verify", "pick", "hirzebruch", "--u", "1,3"], (2, 1, 1, 1)),
    (["verify", "signature", "hirzebruch", "--u", "1,3"], (2, 1, 1, 1)),
    (["verify", "face-todd", "hirzebruch"], (2, 0, 1, 1)),
    (["verify", "tetrahedron", "simplex3_1"], (1, 0, 0, 0)),
    (["compute", "chern", "hirzebruch", "--partition", "2"], (2, 0, 1, 1)),
    (["compute", "chern", "hirzebruch", "--partition", "2", "--u", "1,3"], (1, 1, 1, 0)),
    (["compute", "volume", "hirzebruch", "--breakdown"], (2, 0, 1, 1)),
    (["compute", "volume", "hirzebruch", "--breakdown", "--u", "1,3"], (1, 1, 1, 0)),
    (["compute", "todd-twisted", "hirzebruch", "--u", "1,3"], (1, 1, 1, 0)),
    (["compute", "gysin", "simplex3_1", "--facet", "1", "--power", "3"], (2, 1, 1, 1)),
    (["compute", "gysin", "simplex3_1", "--facet", "1", "--power", "3", "--u", "1,3,7"],
     (1, 1, 1, 0)),
    (["compute", "count", "hirzebruch"], (0, 0, 0, 0)),
], ids=lambda x: " ".join(x) if isinstance(x[0], str) else None)
def test_each_command_reads_its_generic_vectors_once(argv, counts, capsys, monkeypatch):
    """Each of COUNTED is wrapped wherever a module of the package binds it,
    so a call is counted once whichever module makes it.  A given u is
    checked and weighed once, by chart_weights, and a found one is not
    checked at all; each generic-vector search passes the gate itself."""
    calls = dict.fromkeys(COUNTED, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module in [m for name, m in sys.modules.items() if name.startswith("toricpick.")]:
        for name in COUNTED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert cli.main([*argv[:2], corpus_file(argv[2]), *argv[3:], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert tuple(calls.values()) == counts


@pytest.mark.parametrize("argv,message", [
    (["chern", "--u", "1"], "compute chern requires --partition"),
    (["chern", "--partition", "3", "--u", "1"], r"partition \(3,\) does not sum to 2"),
    (["gysin", "--u", "1"], "compute gysin requires --facet and --power"),
], ids=["chern", "chern-partition", "gysin"])
def test_a_line_wrong_twice_names_its_other_error_first(argv, message, capsys):
    """--u is only parsed on the command line and checked where the library
    reads it, so a line with a short u that also lacks or misstates another
    option reports that other error."""
    assert cli.main(["compute", argv[0], corpus_file("hirzebruch"), *argv[1:]]) == 2
    assert re.fullmatch("error: %s\n" % message, capsys.readouterr().err)


def test_corpus_command(tmp_path, capsys):
    target = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, target)
    code = cli.main(["corpus", str(target), "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all identities hold" in out
    code = cli.main(["corpus", str(target), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["all_hold"] is True
    assert len(data["files"]) == len(CORPUS_NAMES)
    tets = [f for f in data["files"] if "tetrahedron" in f["checks"]]
    assert sorted(f["polytope"] for f in tets) == ["simplex3_1", "simplex3_2"]


def test_corpus_command_rejects_bad_file(tmp_path, capsys):
    target = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, target)
    shutil.copy(P112, target)
    code = cli.main(["corpus", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "p112.json" in err
    assert cli.main(["corpus", str(tmp_path / "nowhere")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["corpus", str(empty)]) == 2


def test_corpus_keeps_the_class_of_a_check_error(capsys, monkeypatch):
    """A check's error names the file and keeps its class, so routes that
    disagree exit 1 under corpus as under verify, not 2 as bad input."""
    def disagreeing(p, u=None):
        raise RouteDisagreementError("routes disagree")
    monkeypatch.setitem(cli.CHECKS, "pick", (disagreeing, True))
    assert cli.main(["corpus", CORPUS_DIR, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: %s: routes disagree\n" % os.path.join(CORPUS_DIR, "cube1.json"))


# inputs the vertex walk and validate refuse: the apex of a square pyramid
# lies on four facets, a half-strip has a ray, and x + y >= -1 cuts out no
# face of the unit square
REFUSED = {
    "pyramid": (3, [((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1),
                    ((0, -1, -1), -1), ((0, 1, -1), -1)],
                "vertex (0, 0, 1) lies on facets (1, 2, 3, 4); polytope is not simple"),
    "half-strip": (2, [((1, 0), 0), ((0, 1), 0), ((0, -1), -1)],
                   "recession cone contains direction (1, 0)"),
    "redundant": (2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((1, 1), -1)],
                  "facet 4 is redundant (supports no face)"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_walk_refusals_exit_two_naming_the_file(case, tmp_path, capsys):
    dim, facets, message = REFUSED[case]
    path = write(tmp_path, case + ".json", dump_polytope(HPolytope(dim, facets)))
    assert cli.main(["verify", "pick", path, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s: %s\n" % (path, message))


def test_argparse_rejects_unknown_usage():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit):
        cli.main(["verify", "nonsense", "x.json"])


def test_usage_errors_exit_two_between_calls(capsys):
    for argv in ([], ["frobnicate"], ["verify", "nonsense", "x.json"],
                 ["compute", "gysin", corpus_file("square1"), "--facet", "x"]):
        assert cli.main(["verify", "pick", corpus_file("square1"), "--format", "json"]) == 0
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_back_to_back_calls_match_separate_runs(capsys):
    runs = [
        ["verify", "todd", corpus_file("hirzebruch"), "--format", "json"],
        ["compute", "gysin", corpus_file("prism"), "--facet", "2", "--power", "3",
         "--breakdown", "--format", "table"],
        ["compute", "count", corpus_file("square2"), "--faces", "--format", "json"],
        ["verify", "pick", corpus_file("triangle2"), "--u", "3,5", "--format", "table"],
        ["compute", "chern", corpus_file("cube1"), "--format", "json"],
        ["verify", "todd", corpus_file("hirzebruch"), "--format", "table"],
        # lines argparse reads, after and before ones the plain reader takes
        ["verify", "pick", corpus_file("square1"), "--format=table"],
        ["compute", "count", corpus_file("square2"), "--fo", "json"],
        ["compute", "gysin", corpus_file("prism"), "--facet", "2", "--power", "3",
         "--format", "json", "--format", "table"],
        ["verify", "signature", corpus_file("hirzebruch"), "--format", "json"],
    ]
    fallback = [cli._read_plain(argv[0], argv[1:]) is None for argv in runs]
    assert fallback == [False] * 6 + [True] * 3 + [False]
    together = []
    for argv in runs:
        code = cli.main(argv)
        together.append((code, capsys.readouterr().out))
    package_root = os.path.dirname(os.path.dirname(toricpick.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    for argv, (code, out) in zip(runs, together):
        proc = subprocess.run([sys.executable, "-m", "toricpick"] + argv, capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert (proc.returncode, proc.stdout) == (code, out), argv
    assert [code for code, _ in together] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0]


FULL_ARGV = 12000
# argv for the parser differential test: usage errors, help, and valid calls
F = corpus_file("square1")
# lines the plain reader leaves to argparse, each for its own reason
FALLBACK_TABLE = [
    ["verify", "pick", F, "-h"], ["compute", "count", F, "--faces", "--help"],
    ["verify", "pick", F, "--format=json"], ["verify", "pick", F, "--fo", "json"],
    ["compute", "count", F, "--fa"],
    ["compute", "gysin", F, "--facet", "-1", "--power", "2"],
    ["verify", "pick", "--", F], ["verify", "pick", F, "--"],
    ["verify", "pick", F, "--format", "json", "--format", "table"],
    ["verify", "pick", ""], ["corpus", CORPUS_DIR, "extra"],
    ["verify", "todd", F, "--u=1,5", "--format", "json"],
    ["verify", "pick", "--format", "json", F], ["verify", "pick", F, "extra"],
    ["compute", "count", F, "--faces", "--form", "table"],
]
PARSER_TABLE = FALLBACK_TABLE + [
    [], ["-h"], ["--help"], ["-x"], ["frobnicate"], ["frobnicate", "pick", F],
    ["verify"], ["compute"], ["corpus"], ["verify", "-h"], ["compute", "--help"],
    ["corpus", "-h"], ["verify", "nonsense", F], ["compute", "count", F, "--format", "xml"],
    ["compute", "gysin", F, "--facet", "x"], ["compute", "gysin", F, "--power"],
    ["verify", "pick", F, "--bogus"],
    ["corpus", "corpus", "--u", "1,2"], ["compute", "count"],
    ["verify", "pick", F], ["verify", "agw", "--format", "table"],
    ["compute", "gysin", F, "--facet", "0", "--power", "2", "--breakdown"],
    ["compute", "chern", F, "--partition", "1,1", "--u", "1,2"],
    ["corpus", "corpus", "--format", "json"],
]


def answer(call, argv):
    """(result, exit code, stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result, code = call(argv), None
    except SystemExit as e:
        result, code = None, e.code
    return result, code, out.getvalue(), err.getvalue()


def check_against_argparse(argv):
    """parse_command returns the namespace the top-level parser's
    parse_args returns, command included; where parse_args exits, main
    exits with its code, stdout and stderr.  argparse is run live, so each
    Python release's wording is the reference.  Returns whether the plain
    reader answered."""
    top = answer(cli._parser().parse_args, argv)
    if top[0] is None:
        assert answer(cli.main, argv)[1:] == top[1:], argv
    else:
        assert answer(cli.parse_command, argv) == top, argv
    return bool(argv) and cli._read_plain(argv[0], argv[1:]) is not None


@pytest.mark.parametrize("argv", PARSER_TABLE, ids=" ".join)
def test_parse_command_matches_the_top_level_parser(argv):
    check_against_argparse(argv)


@pytest.mark.parametrize("argv", FALLBACK_TABLE, ids=" ".join)
def test_plain_reader_leaves_the_line_to_argparse(argv):
    assert cli._read_plain(argv[0], argv[1:]) is None


# the sweep's word list: each option with good values first, the kinds of
# each command, and the strays a mutation inserts (help, prefixes, "=",
# "--", dashes, empty and extra words)
OPTIONS = {"--format": ("json", "table", "xml"), "--u": ("1,2", "3,5", "x"),
           "--partition": ("1,1", "2", "x"), "--facet": ("0", "2", "x", "-1"),
           "--power": ("2", "3", "1.5"), "--faces": (), "--breakdown": ()}
COMMANDS = {"verify": ((*cli.CHECKS, "agw"), ("--format", "--u")),
            "compute": (cli.COMPUTE_KINDS, tuple(OPTIONS)),
            "corpus": ((CORPUS_DIR,), ("--format",))}
STRAYS = ("-h", "--help", "--h", "-1", "-x", "", "--", "-", "extra", "verify",
          "nonsense", "--fo", "--fa", "--f", "--b", "--p", "--format=json",
          "--u=1,2", "--facet=0", "--faces=1", F, "json", "0")


def random_argv(rng):
    """A command line built from its parts, mostly well formed, then
    mutated half the time."""
    command = rng.choice((*COMMANDS, "frobnicate"))
    kinds, options = COMMANDS.get(command, ((), ()))
    argv = [command]
    if kinds:
        argv.append(rng.choice(kinds))
    if command != "corpus" and rng.random() < 0.9:
        argv.append(F)
    if rng.random() < 0.2:
        options = tuple(OPTIONS)
    for option in rng.sample(options, rng.randrange(min(4, len(options) + 1))):
        values = OPTIONS[option]
        value = [values[rng.randrange(2) if rng.random() < 0.9 else -1]] if values else []
        pick = rng.random()
        if pick < 0.05:
            option = option[:rng.randrange(3, len(option) + 1)]
        if pick > 0.95 and value:
            argv.append("%s=%s" % (option, value[0]))
        else:
            argv += [option] + value
    for _ in range(rng.choice((0, 0, 1, 2))):
        i, j = rng.randrange(len(argv)), rng.randrange(len(argv))
        pick = rng.randrange(4)
        if pick == 0:
            argv.insert(i, rng.choice(STRAYS))
        elif pick == 1 and len(argv) > 1:
            del argv[i]
        elif pick == 2:
            argv[i], argv[j] = argv[j], argv[i]
        else:
            argv.append(argv[i])
    return argv


def sweep(seed, count):
    """Check count seeded argv against argparse; returns how many the
    plain reader answered and how many it left to argparse."""
    rng = random.Random(seed)
    plain = sum(check_against_argparse(random_argv(rng)) for _ in range(count))
    return plain, count - plain


def test_random_command_lines_parse_as_argparse_does():
    plain, fallback = sweep(1, 600)
    assert plain > 100 and fallback > 100


def test_verify_requires_file_for_polytope_kinds(capsys):
    assert cli.main(["verify", "pick"]) == 2


def test_python_dash_m_runs_the_cli_without_warnings():
    package_root = os.path.dirname(os.path.dirname(toricpick.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "toricpick", "verify", "todd",
         corpus_file("square1"), "--format", "json"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["holds"] is True


def test_closed_pipe_exits_141_without_a_traceback():
    """The read end is closed before the child starts, so its first write
    to stdout fails with EPIPE whatever the timing."""
    package_root = os.path.dirname(os.path.dirname(toricpick.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toricpick", "compute", "count",
             corpus_file("simplex3_2"), "--faces", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr


if __name__ == "__main__":
    start = time.perf_counter()
    plain, fallback = sweep(2, FULL_ARGV)
    print("%d command lines parse as argparse does (%d read plain, %d left to "
          "argparse), %.1f s" % (FULL_ARGV, plain, fallback, time.perf_counter() - start))
