"""Traced replay of one op, layer by layer, timed from outside the program.

Each op's layer calls are made in dependency order on a fresh translate:
vertex charts first, then parsing (which finds the charts cached), the
face lattice, the lattice count, the genus class, the generic vectors and
the localization sum, then the whole identity check on the warm geometry,
then rendering.  Every call is a span (name, start, end, parent, op id);
counts of the work each layer did are added at the same boundaries.
Spans stay in memory until the run writes them out.

The replay calls the layer functions the program has at this commit.  A
layer whose function is gone is skipped and reports 0; spans inside the
program replace this replay once it can report its own stages.
"""

import importlib
import json
import time
from contextlib import contextmanager
from math import comb

LAYER_TIMES = [
    "lattice.count", "polytope.faces", "polytope.vertices", "polytope.volume",
    "polytope.induce", "series.class", "localization.generic",
    "localization.integrate", "localization.chern", "cli.parse", "cli.render",
    "invariants.check", "agw.verify",
]
LAYER_COUNTS = [
    "lattice.box_points", "lattice.lattice_points", "polytope.face_count",
    "polytope.order_pairs", "polytope.vertex_subsets", "polytope.vertex_count",
    "series.class_terms", "localization.term_evals", "cli.output_bytes",
]


class Tracer:
    """In-memory spans and exact work counters for a traced run."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(LAYER_COUNTS, 0)
        self.op = None
        self.root = None

    @contextmanager
    def op_span(self, oid, label):
        self.op = oid
        self.root = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[self.root] = (label, start, time.perf_counter(), None, oid)
            self.root = None

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), self.root, self.op))

    def add(self, counter, amount):
        self.counts[counter] += amount

    def layer_seconds(self):
        out = dict.fromkeys(LAYER_TIMES, 0.0)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                out[name] += end - start
        return out

    def dump(self, path):
        rows = [{"id": i, "name": name, "start": start, "end": end, "parent": parent,
                 "op": oid}
                for i, (name, start, end, parent, oid) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


class Api:
    """The program's layer functions, looked up once; absent ones are None."""

    NAMES = {
        "polytope": ["HPolytope", "enumerate_vertices", "face_lattice", "volume",
                     "induce_face_polytope", "h_vector", "signature_from_h"],
        "lattice": ["count_points"],
        "series": ["exp_linear", "genus_series", "product_over_facets"],
        "localization": ["choose_generic", "integrate_poly_breakdown", "integrate_poly",
                         "chern_number", "gysin_power", "gysin_power_v3",
                         "integrate_monomial"],
        "invariants": ["check_pick", "check_todd", "check_untwisted_signature",
                       "check_face_todd", "check_tetrahedron", "volume_breakdown",
                       "twisted_todd_breakdown", "twisted_signature_breakdown"],
        "cli": ["polytope_from_dict", "report_to_dict", "render_json", "jsonable"],
        "agw": ["verify_agw"],
    }

    def __init__(self, package):
        self.missing = []
        for module, names in self.NAMES.items():
            try:
                mod = importlib.import_module("%s.%s" % (package, module))
            except ImportError:
                mod = None
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append("%s.%s" % (module, name))
                setattr(self, name, fn)

    def has(self, *names):
        return all(getattr(self, name) is not None for name in names)


GENUS = {"pick": ("SignatureHalf", True), "todd": ("Todd", True),
         "signature": ("SignatureHalf", False), "volume": (None, True),
         "todd-twisted": ("Todd", True), "signature-twisted": ("SignatureHalf", True)}
CHECKS = {"pick": "check_pick", "todd": "check_todd",
          "signature": "check_untwisted_signature", "face-todd": "check_face_todd",
          "tetrahedron": "check_tetrahedron"}
NEEDS_FACES = {"pick", "todd", "signature", "face-todd", "tetrahedron", "count",
               "hvector", "volume"}
NEEDS_COUNT = {"pick", "todd", "face-todd", "tetrahedron", "count"}


class Replay:
    """Replays ops through the layer functions under a Tracer."""

    def __init__(self, api, tracer):
        self.api = api
        self.t = tracer

    # -- layers --------------------------------------------------------

    def vertices(self, p):
        with self.t.span("polytope.vertices"):
            charts = self.api.enumerate_vertices(p)
        self.t.add("polytope.vertex_subsets", comb(len(p.facets), p.dim))
        self.t.add("polytope.vertex_count", len(charts))
        return charts

    def parse(self, data):
        with self.t.span("cli.parse"):
            return self.api.polytope_from_dict(data, source="<replay>")

    def faces(self, p):
        with self.t.span("polytope.faces"):
            fl = self.api.face_lattice(p)
        self.t.add("polytope.face_count", len(fl.faces))
        self.t.add("polytope.order_pairs", len(fl.leq))
        return fl

    def count(self, p, charts):
        with self.t.span("lattice.count"):
            fc = self.api.count_points(p)
        box = 1
        for k in range(p.dim):
            coords = [c.vertex[k] for c in charts]
            box *= _ceil(max(coords)) - _floor(min(coords)) + 1
        self.t.add("lattice.box_points", box)
        self.t.add("lattice.lattice_points", fc.total)
        return fc

    def genus_class(self, p, genus, twist):
        if not self.api.has("exp_linear", "genus_series", "product_over_facets"):
            return None
        n, m = p.dim, len(p.facets)
        with self.t.span("series.class"):
            cls = None
            if twist:
                cls = self.api.exp_linear([-a for _, a in p.facets], n)
            if genus is not None:
                g = self.api.product_over_facets(self.api.genus_series(genus, n), m, n)
                cls = g if cls is None else cls.mul(g)
        self.t.add("series.class_terms", len(cls.terms))
        return cls

    def generic(self, charts, count=2):
        with self.t.span("localization.generic"):
            u1 = self.api.choose_generic(charts)
            if count == 1:
                return (u1,)
            return u1, self.api.choose_generic(charts, exclude=(tuple(u1),))

    def integrate(self, p, charts, cls, vectors):
        if cls is None or not self.api.has("integrate_poly_breakdown", "integrate_poly"):
            return None
        with self.t.span("localization.integrate"):
            value, _ = self.api.integrate_poly_breakdown(p, cls, vectors[0])
            for u in vectors[1:]:
                self.api.integrate_poly(p, cls, u)
        self.t.add("localization.term_evals", len(charts) * len(cls.terms) * len(vectors))
        return value

    def check(self, fn, *args):
        with self.t.span("invariants.check"):
            return getattr(self.api, fn)(*args)

    def render(self, data):
        with self.t.span("cli.render"):
            text = self.api.render_json(self.api.jsonable(data))
        self.t.add("cli.output_bytes", len(text) + 1)
        return text

    # -- ops -----------------------------------------------------------

    def run(self, op, poly):
        """Replay op on the translate poly (a gen.Poly, or a list for corpus).

        Returns the output a user would see, as parsed JSON, and the
        localization value the replay computed itself (None if none).
        """
        if op.command == "corpus":
            return self._corpus(poly), None
        if op.kind == "agw":
            with self.t.span("agw.verify"):
                report = self.api.verify_agw()
            return json.loads(self.render(self.api.report_to_dict(report))), None
        data = poly.to_dict()
        p0 = self.api.HPolytope(data["dim"], [(f["normal"], f["offset"])
                                              for f in data["facets"]], data["name"])
        charts = self.vertices(p0)
        p = self.parse(data)
        kind = op.kind
        fl = self.faces(p) if kind in NEEDS_FACES else None
        fc = self.count(p, charts) if kind in NEEDS_COUNT else None
        vol = value = None
        if kind in ("volume", "tetrahedron"):
            with self.t.span("polytope.volume"):
                vol = self.api.volume(p)
        if kind in GENUS and not (kind == "volume" and "--breakdown" not in op.flags):
            genus, twist = GENUS[kind]
            cls = self.genus_class(p, genus, twist)
            vectors = self.generic(charts, 2 if op.command == "verify" else 1)
            value = self.integrate(p, charts, cls, vectors)
        if kind == "face-todd":
            self._face_classes(p, fl)
        if op.command == "verify":
            report = self.check(CHECKS[kind], p)
            return json.loads(self.render(self.api.report_to_dict(report))), value
        data = self._compute(op, p, charts, fl, fc, vol)
        return json.loads(self.render(data)), value

    def _face_classes(self, p, fl):
        """The per-face twisted Todd classes and sums check_face_todd makes."""
        for face in fl.faces:
            if face.dim == 0:
                continue
            if face.dim == p.dim:
                q, charts = p, self.api.enumerate_vertices(p)
            else:
                with self.t.span("polytope.induce"):
                    q = self.api.induce_face_polytope(p, face)
                charts = self.vertices(q)
            cls = self.genus_class(q, "Todd", True)
            self.integrate(q, charts, cls, self.generic(charts, 1))

    def _compute(self, op, p, charts, fl, fc, vol):
        kind, api = op.kind, self.api
        data = {"command": "compute", "kind": kind, "polytope": p.name or ""}
        if kind == "count":
            data["value"] = fc.total
            data["faces"] = [{"dim": f.dim, "facets": sorted(f.facet_set),
                              "closed": fc.closed[i], "relint": fc.relint[i]}
                             for i, f in enumerate(fl.faces)]
        elif kind == "hvector":
            hv = api.h_vector(fl)
            data["value"] = list(hv.h)
            data["breakdown"] = {"f_vector": list(fl.f_vector),
                                 "signature": api.signature_from_h(hv)}
        elif kind == "volume":
            data["value"] = vol
            if "--breakdown" in op.flags:
                total, per_vertex = self.check("volume_breakdown", p, None)
                data["breakdown"] = {"localization_total": total,
                                     "per_vertex": {_key(v): c for v, c in per_vertex}}
        elif kind == "chern":
            omega = tuple(int(x) for x in op.flags[1].split(","))
            (u,) = self.generic(charts, 1)
            with self.t.span("localization.chern"):
                data["value"] = api.chern_number(p, omega, u=u)
        elif kind == "gysin":
            (u,) = self.generic(charts, 1)
            n = p.dim
            exponents = tuple(n if i == 0 else 0 for i in range(len(p.facets)))
            with self.t.span("localization.integrate"):
                data["value"] = api.gysin_power(p, 0, n, u)
                bd = {"monomial_route": api.integrate_monomial(p, exponents, u)}
                if n == 3:
                    bd["triple_product_route"] = api.gysin_power_v3(p, 0, u)
            self.t.add("localization.term_evals", 2 * len(charts))
            data["breakdown"] = bd
        else:
            fn = "twisted_todd_breakdown" if kind == "todd-twisted" \
                else "twisted_signature_breakdown"
            value, per_vertex = self.check(fn, p, None)
            data["value"] = value
            if "--breakdown" in op.flags:
                data["breakdown"] = {"per_vertex": {_key(v): c for v, c in per_vertex}}
        return data

    def _corpus(self, polys):
        files = []
        for pos, poly in enumerate(polys):
            data = poly.to_dict()
            p0 = self.api.HPolytope(data["dim"], [(f["normal"], f["offset"])
                                                  for f in data["facets"]], data["name"])
            charts = self.vertices(p0)
            p = self.parse(data)
            self.faces(p)
            self.count(p, charts)
            pick = self.check("check_pick", p)
            checks = {"pick": pick.holds,
                      "todd": self.check("check_todd", p).holds,
                      "face-todd": self.check("check_face_todd", p).holds,
                      "signature": self.check("check_untwisted_signature", p).holds,
                      "u-indep": pick.breakdown["lhs_at_second_vector"] == pick.lhs}
            if p.dim == 3 and len(p.facets) == 4:
                checks["tetrahedron"] = self.check("check_tetrahedron", p).holds
            files.append({"file": "%02d_%s.json" % (pos, poly.name), "polytope": p.name,
                          "holds": all(checks.values()), "checks": checks})
        payload = {"files": files, "all_hold": all(f["holds"] for f in files)}
        return json.loads(self.render(payload))


def _floor(x):
    return x.numerator // x.denominator


def _ceil(x):
    return -((-x.numerator) // x.denominator)


def _key(point):
    return "(%s)" % ",".join(str(x) for x in point)
