"""End-to-end identity checks and the twisted genus evaluations."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from families import CORPUS_NAMES, P112, cube, get, simplex, weighted_simplex
from oracles import kahler_class
from toricpick import invariants, localization, polytope
from toricpick.cli import load_polytope, render_json, report_to_dict
from toricpick.errors import (BudgetError, DimensionError, GenericityError, InputError,
                              ShapeError)
from toricpick.invariants import (check_face_todd, check_pick,
                                  check_tetrahedron, check_todd,
                                  check_untwisted_signature,
                                  twisted_signature_breakdown,
                                  twisted_todd_breakdown, volume_breakdown)
from toricpick.lattice import count_points, weighted_sum_closed, weighted_sum_relint
from toricpick.localization import choose_generic
from toricpick.polytope import (VertexChart, enumerate_vertices, face_lattice,
                                h_vector, signature_from_h, volume)

F = Fraction

PICK_VALUES = {
    "square1": F(1), "triangle1": F(3, 4), "simplex3_1": F(1, 2),
    "simplex3_2": F(2), "hirzebruch": F(3, 2), "interval5": F(5),
}


def test_check_pick_holds_on_corpus():
    for name in CORPUS_NAMES:
        r = check_pick(get(name))
        assert r.holds, name
        assert r.identity == "pick"
        assert r.lhs == r.rhs
        if name in PICK_VALUES:
            assert r.lhs == PICK_VALUES[name], name


def test_check_pick_breakdown_consistency():
    r = check_pick(get("square2"))
    bd = r.breakdown
    assert bd["lhs_at_second_vector"] == r.lhs
    assert bd["relint_formulation_rhs"] == r.rhs
    assert sum(bd["per_vertex"].values()) == r.lhs
    assert bd["closed_count_by_dim"]["2"] == 9
    assert bd["classical_pick_holds"] is True
    assert bd["area"] == 4
    assert bd["interior_points"] == 1
    assert bd["boundary_points"] == 8
    assert len(r.generic_vectors) == 2
    assert r.generic_vectors[0] != r.generic_vectors[1]


def test_check_pick_with_explicit_vector():
    p = get("square1")
    r = check_pick(p, u=(2, 3))
    assert r.holds
    assert r.generic_vectors[0] == (2, 3)
    assert r.lhs == PICK_VALUES["square1"]


class Index:
    """An integer type that is not int: it has __index__ and nothing more."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_a_given_vector_is_reported_as_the_ints_it_is_weighed_at():
    p = get("triangle1")
    for given in ((True, 2), (Index(1), Index(2))):
        r = check_todd(p, u=given)
        assert r.holds and r.generic_vectors == ((1, 2), (1, 3))
        assert all(type(x) is int for u in r.generic_vectors for x in u)
        assert json.loads(render_json(report_to_dict(r)))["generic_vectors"] == [[1, 2], [1, 3]]


def test_a_bad_given_vector_is_refused_before_any_count(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("count_points called")

    monkeypatch.setattr(invariants, "count_points", forbidden)
    p = get("square1")
    for check in (check_pick, check_todd):
        with pytest.raises(DimensionError, match=r"^generic vector entry 1\.5 is not an integer$"):
            check(p, u=(1.5, 2))
        with pytest.raises(DimensionError, match="generic vector has length 3, expected 2"):
            check(p, u=(1, 2, 3))
        with pytest.raises(GenericityError, match="pairs to zero"):
            check(p, u=(1, 0))


def test_check_todd_counts_lattice_points():
    for name in CORPUS_NAMES:
        r = check_todd(get(name))
        assert r.holds, name
        assert r.rhs == count_points(get(name)).total
        assert sum(r.breakdown["per_vertex"].values()) == r.lhs


def test_check_untwisted_signature():
    for name in CORPUS_NAMES:
        p = get(name)
        r = check_untwisted_signature(p)
        assert r.holds, name
        hv = h_vector(face_lattice(p))
        n = p.dim
        h_at_minus_one = sum(h * (-1) ** (n - k) for k, h in enumerate(hv.h))
        assert r.rhs == F((-1) ** n * h_at_minus_one, 2 ** n)
        assert type(r.rhs) is F, name
        assert r.breakdown["signature"] == signature_from_h(hv)
    two_d = check_untwisted_signature(get("triangle1"))
    assert two_d.lhs == F(1, 4)
    assert two_d.breakdown["four_minus_m"] == 1
    square = check_untwisted_signature(get("square1"))
    assert square.lhs == 0
    assert square.breakdown["four_minus_m"] == 0


def test_twisted_genera_values():
    for name in ("square2", "triangle3", "cube1", "prism"):
        p = get(name)
        assert twisted_todd_breakdown(p)[0] == count_points(p).total
        assert twisted_signature_breakdown(p)[0] == weighted_sum_closed(count_points(p))
        assert volume_breakdown(p)[0] == volume(p)


def test_twisted_genera_u_independence():
    p = get("hirzebruch")
    u1 = choose_generic(enumerate_vertices(p))
    u2 = choose_generic(enumerate_vertices(p), exclude=(tuple(u1),))
    assert twisted_todd_breakdown(p, u1)[0] == twisted_todd_breakdown(p, u2)[0] == 5
    assert (twisted_signature_breakdown(p, u1)[0]
            == twisted_signature_breakdown(p, u2)[0] == F(3, 2))


def test_check_tetrahedron():
    r1 = check_tetrahedron(get("simplex3_1"))
    assert r1.holds and r1.lhs == F(1, 2) and r1.rhs == F(1, 2)
    r2 = check_tetrahedron(get("simplex3_2"))
    assert r2.holds and r2.lhs == 2 and r2.rhs == 2
    assert r2.breakdown["volume"] == F(4, 3)
    assert r2.breakdown["offset_sum_over_3"] == F(-2, 3)
    with pytest.raises(ShapeError):
        check_tetrahedron(get("cube1"))
    with pytest.raises(ShapeError):
        check_tetrahedron(get("square1"))


def test_check_face_todd():
    for name in CORPUS_NAMES:
        r = check_face_todd(get(name))
        assert r.holds, name
        faces = r.breakdown["faces"]
        fl = face_lattice(get(name))
        assert len(faces) == len(fl.faces)
        for label, entry in faces.items():
            assert entry["twisted_todd"] == entry["lattice_count"], (name, label)


def test_kahler_class_terms():
    p = get("hirzebruch")
    w = kahler_class(p)
    m = len(p.facets)
    for i, a in enumerate(p.offsets):
        e = tuple(1 if j == i else 0 for j in range(m))
        assert w.terms.get(e, 0) == -a
    assert (0,) * m not in w.terms


def test_checks_reject_non_delzant():
    p = load_polytope(P112)
    for check in (check_pick, check_todd, check_untwisted_signature,
                  check_face_todd):
        with pytest.raises(InputError):
            check(p)
    with pytest.raises(InputError):
        twisted_todd_breakdown(p)


def test_budgets_refuse_before_anything_is_localized(monkeypatch):
    """Every check computes its budgeted side first: the 16-simplex, whose
    face order is over FACE_BUDGET, is refused without a localize call.

    The localized checks take one prelude, in this order: the Delzant gate,
    then the generic vectors, a given one first and each further one
    excluding those before it, then the face budget; nothing is counted,
    swept or localized before all three pass."""
    steps = []

    def logged(name, fn):
        def call(*args, **kwargs):
            steps.append((name, *map(tuple, kwargs.values())))
            return fn(*args, **kwargs)
        return call

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError("%s called" % name)
        return call

    for name in ("require_delzant", "choose_generic", "charge_faces"):
        monkeypatch.setattr(invariants, name, logged(name, getattr(invariants, name)))
    for name in ("localize", "_face_todd_sweep", "count_points"):
        monkeypatch.setattr(invariants, name, forbidden(name))
    p = simplex(16)
    for check in (check_pick, check_todd, check_untwisted_signature, check_face_todd):
        with pytest.raises(BudgetError, match="face order"):
            check(p)
    # not Delzant (det 2 at the vertex off the first facet) and over the face budget
    not_delzant = weighted_simplex((2,) + (1,) * 15, 2)
    first, given = tuple(2 ** k for k in range(16)), tuple(range(1, 17))
    for check, vectors in ((check_pick, 2), (twisted_todd_breakdown, 1), (check_face_todd, 1)):
        steps.clear()
        with pytest.raises(InputError, match="not Delzant: vertex .* has det"):
            check(not_delzant)
        assert steps == [("require_delzant",)], check.__name__
        # a given vector is taken as the first, and only the rest are picked
        for args in [()] + ([] if check is check_face_todd else [(given,)]):
            steps.clear()
            with pytest.raises(BudgetError, match="face order"):
                check(p, *args)
            picked = [("choose_generic", (args or (first,))[:k]) for k in range(len(args), vectors)]
            assert steps == [("require_delzant",)] + picked + [("charge_faces",)], \
                (check.__name__, args)


def test_check_todd_gates_once_and_weighs_each_chart_once_per_vector(monkeypatch):
    """On a fresh 8-cube the gate is asked three times (the prelude and each
    generic-vector search) and reads the chart table's verdict, found when
    the walk made the table, by one pass that reads every chart's det once;
    each chart is weighed once at each of the two vectors, and localize sums
    the weight tables the prelude read from the store."""
    dets, weighed, asked = Counter(), Counter(), []

    class Counted(VertexChart):
        @property
        def det(self):
            dets[self.vertex] += 1
            return self._det

        @det.setter
        def det(self, d):
            self._det = d

    class Rows(tuple):
        """A chart's M rows, counting each pass over them, one per weighing."""
        def __iter__(self):
            weighed[self.vertex] += 1
            return super().__iter__()

    monkeypatch.setattr(polytope, "VertexChart", Counted)
    p = cube(8)
    charts = enumerate_vertices(p)
    for c in charts:
        c.mu_matrix = Rows(c.mu_matrix)
        c.mu_matrix.vertex = c.vertex
    for module in (invariants, localization):
        monkeypatch.setattr(module, "require_delzant", lambda q, gate=module.require_delzant:
                            asked.append(q) or gate(q))
    report = check_todd(p)
    assert report.holds and report.lhs == 2 ** 8
    assert len(asked) == 3 and all(q is charts for q in asked)
    assert len(charts) == 2 ** 8 and dets == Counter(c.vertex for c in charts)
    assert weighed == Counter({c.vertex: 2 for c in charts})
    assert list(charts.weighed) == list(report.generic_vectors)


def test_face_todd_sweeps_the_table_its_prelude_read(monkeypatch):
    """check_face_todd's sweep reads no weights itself: with chart_weights
    and the store out of reach it sums the table of the one vector the
    prelude found, as the store holds it, and the prelude reads that table
    from the store, not through chart_weights."""
    handed, sweep = [], invariants._face_todd_sweep

    def forbidden(*args, **kwargs):
        raise AssertionError("weights read again")

    def watched(q, charts, weights):
        handed.append((charts, weights))
        with monkeypatch.context() as m:
            for module in (invariants, localization):
                m.setattr(module, "chart_weights", forbidden)
            m.setattr(polytope.ChartTable, "weigh", forbidden)
            return sweep(q, charts, weights)

    monkeypatch.setattr(invariants, "_face_todd_sweep", watched)
    monkeypatch.setattr(invariants, "chart_weights", forbidden)
    p = cube(3)
    charts = enumerate_vertices(p)
    assert check_face_todd(p).holds
    (u,) = charts.weighed
    assert len(handed) == 1 and handed[0][0] is charts and handed[0][1] is charts.weighed[u][0]


def test_face_todd_reads_its_faces_before_it_counts(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("count_points called")

    monkeypatch.setattr(invariants, "count_points", forbidden)
    with pytest.raises(BudgetError, match="face order"):
        check_face_todd(simplex(16))


def test_pick_cross_check_compares_two_closures():
    # the closed side closes the masks over the face lattice and the
    # relative-interior side reads the histogram taken when they were
    # counted, so a count moved in between shows as a disagreement
    p = simplex(3, 4)
    fc = count_points(p)
    assert fc.by_mask[0] == 1
    fc.by_mask[0], fc.by_mask[1] = 0, fc.by_mask[1] + 1
    report = check_pick(p)
    assert report.breakdown["relint_formulation_rhs"] == weighted_sum_relint(fc)
    assert report.rhs != report.breakdown["relint_formulation_rhs"] and not report.holds


def test_report_repr_mentions_verdict():
    r = check_pick(get("square1"))
    text = repr(r)
    assert "pick" in text and "square1" in text and "True" in text
