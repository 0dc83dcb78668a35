"""Command line behavior: file parsing, report schema, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import toricpick
from toricpick import cli, corpus
from toricpick.errors import InputError
from toricpick.invariants import Report, check_pick
from toricpick.polytope import HPolytope

HERE = os.path.dirname(__file__)
CORPUS_DIR = os.path.normpath(os.path.join(HERE, os.pardir, "corpus"))
P112 = os.path.join(HERE, "data", "p112.json")


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
    p = corpus.get("hirzebruch")
    path = write(tmp_path, "h.json", cli.dump_polytope(p))
    q = cli.load_polytope(path)
    assert q == p and q.name == "hirzebruch"
    nameless = HPolytope(1, [((1,), 0), ((-1,), -2)])
    path2 = write(tmp_path, "n.json", cli.dump_polytope(nameless))
    r = cli.load_polytope(path2)
    assert r == nameless and r.name is None


def test_bundled_corpus_files_in_sync():
    for name in corpus.names():
        with open(corpus_file(name), "r", encoding="utf-8") as fh:
            assert fh.read() == cli.dump_polytope(corpus.get(name)), name
    with open(P112, "r", encoding="utf-8") as fh:
        assert fh.read() == cli.dump_polytope(corpus.non_delzant_triangle())


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
    assert data == cli.report_to_dict(check_pick(corpus.get("square1")))


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


def test_verify_rejects_non_delzant(capsys):
    code = cli.main(["verify", "pick", P112])
    err = capsys.readouterr().err
    assert code == 2
    assert "(0, 1)" in err and "-2" in err


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
    monkeypatch.setattr(cli, "check_pick", fake_check)
    assert cli.main(["verify", "pick", corpus_file("square1")]) == 1


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


def test_compute_hvector(capsys):
    code = cli.main(["compute", "hvector", corpus_file("prism"),
                     "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["value"] == [1, 2, 2, 1]
    assert data["breakdown"]["f_vector"] == [6, 9, 5, 1]
    assert data["breakdown"]["signature"] == 0


def test_compute_volume_breakdown(capsys):
    code = cli.main(["compute", "volume", corpus_file("hirzebruch"),
                     "--breakdown", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["value"] == "3/2"
    assert data["breakdown"]["localization_total"] == "3/2"


def test_compute_twisted_genera(capsys):
    code = cli.main(["compute", "todd-twisted", corpus_file("square1"),
                     "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["value"] == "4"
    code = cli.main(["compute", "signature-twisted", corpus_file("square1"),
                     "--breakdown", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["value"] == "1"
    assert len(data["breakdown"]["per_vertex"]) == 4


def test_corpus_command(tmp_path, capsys):
    target = tmp_path / "corpus"
    target.mkdir()
    corpus.write_corpus(str(target))
    code = cli.main(["corpus", str(target), "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all identities hold" in out
    code = cli.main(["corpus", str(target), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["all_hold"] is True
    assert len(data["files"]) == len(corpus.names())
    tets = [f for f in data["files"] if "tetrahedron" in f["checks"]]
    assert sorted(f["polytope"] for f in tets) == ["simplex3_1", "simplex3_2"]


def test_corpus_command_rejects_bad_file(tmp_path, capsys):
    target = tmp_path / "corpus"
    target.mkdir()
    corpus.write_corpus(str(target))
    with open(P112) as fh:
        (target / "p112.json").write_text(fh.read())
    code = cli.main(["corpus", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "p112.json" in err
    assert cli.main(["corpus", str(tmp_path / "nowhere")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["corpus", str(empty)]) == 2


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
    ]
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
    assert [code for code, _ in together] == [0, 0, 0, 0, 2, 0]


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
