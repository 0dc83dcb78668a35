"""The library surface that perfbench/replay.py reads, held in tier-1.

The traced benchmark smoke runs replay each op through the layer functions,
looked up by name, and still read ChartTable.leq (through face_lattice) and
induce_face_polytope.  A removal that would break those runs fails here
first.  The replay is read from its file and run in memory, so nothing under
perfbench/ is written.
"""

import os
import types

from families import get

REPLAY_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "replay.py")


def load_replay():
    module = types.ModuleType("replay")
    with open(REPLAY_PATH, encoding="utf-8") as handle:
        exec(compile(handle.read(), REPLAY_PATH, "exec"), module.__dict__)
    return module


REPLAY = load_replay()


def test_the_replay_misses_only_the_removed_class_layer():
    # the m-variable class, its integration and the genus series (the class
    # restricts through genus_log alone) left src/, and the replay reports
    # their spans as 0
    assert sorted(REPLAY.Api("toricpick").missing) == [
        "localization.integrate_poly", "localization.integrate_poly_breakdown",
        "series.exp_linear", "series.genus_series", "series.product_over_facets"]


def test_the_replay_lays_out_orders_and_induces_the_faces():
    replay = REPLAY.Replay(REPLAY.Api("toricpick"), REPLAY.Tracer())
    p = get("simplex3_2")
    fl = replay.faces(p)
    counts = replay.t.counts
    # 4 vertices, 6 edges, 4 facets and P; the simplex's order has
    # 3^4 - 2^4 pairs
    assert counts["polytope.face_count"] == 15 and counts["polytope.order_pairs"] == 65
    replay._face_classes(p, fl)
    spans = [span[0] for span in replay.t.spans]
    # every edge and facet is induced and walked
    assert spans.count("polytope.induce") == 10
    assert counts["polytope.vertex_count"] == 6 * 2 + 4 * 3
