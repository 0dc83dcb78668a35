"""The three workloads: op templates, seeded op lists and reference checks.

An op is one ``toricpick`` command line.  A workload is a fixed list of
templates (polytope family x command); one pass runs every template once,
each time on its own fresh translate, in a seeded order.  A run makes a
whole number of passes, so every seed runs the same mix of commands.
"""

import json
import os
from fractions import Fraction

import gen


class Op:
    """One command on one input; ``path`` is set when the inputs are written."""

    def __init__(self, oid, command, kind, poly=None, flags=(), batch=None, label=None):
        self.oid = oid
        self.command = command      # "verify", "compute" or "corpus"
        self.kind = kind            # pick, todd, ..., or "dir" for corpus
        self.poly = poly            # gen.Poly, None for agw and corpus
        self.flags = list(flags)
        self.batch = batch          # list of gen.Poly for a corpus directory
        self.label = label or "%s %s" % (command, kind)
        self.path = None
        self.template = None        # index of the template the op came from

    def argv(self):
        if self.command == "corpus":
            return ["corpus", self.path, "--format", "json"]
        args = [self.command, self.kind]
        if self.path is not None:
            args.append(self.path)
        return args + self.flags + ["--format", "json"]


MIN_PASSES = 3


class Workload:
    def __init__(self, name, templates, pass_seconds):
        self.name = name
        # templates(seed) -> list of make(mover, oid) -> Op
        self.templates = templates
        # wall time of one pass at the seed commit; sets how many passes a
        # run of a given length makes
        self.pass_seconds = pass_seconds

    def passes(self, seconds):
        """Passes in a run of about `seconds` at the seed commit; at least 3."""
        return max(MIN_PASSES, round(seconds / self.pass_seconds))

    def mover(self, seed):
        return gen.Mover(gen.rng_for(seed, self.name + "/move"))

    def ops(self, seed, passes, mover):
        """The run's fixed op list: `passes` shuffled passes over the templates."""
        templates = self.templates(seed)
        order = gen.rng_for(seed, self.name + "/order")
        out = []
        for _ in range(passes):
            for index in order.sample(range(len(templates)), len(templates)):
                op = templates[index](mover, len(out))
                op.template = index
                out.append(op)
        return out


def _file_op(command, kind, poly, flags=(), name=None):
    label = " ".join([command, kind, name or poly.name] + list(flags))

    def make(mover, oid):
        return Op(oid, command, kind, mover.fresh(poly), flags, label=label)
    return make


def _dim_partitions(poly):
    """Partitions whose Chern number the generator knows for this polytope."""
    n = poly.dim
    out = [(n,)]
    if n > 1 and poly.chern((1,) * n) is not None:
        out.append((1,) * n)
    return out


def _chern_op(poly, omega):
    return _file_op("compute", "chern", poly, ["--partition", ",".join(map(str, omega))])


def corpus_cli_templates(seed):
    polys = gen.bundled_corpus()
    out = []
    for p in polys:
        for kind in ("pick", "todd", "face-todd", "signature"):
            out.append(_file_op("verify", kind, p))
        if p.dim == 3 and len(p.facets) == 4:
            out.append(_file_op("verify", "tetrahedron", p))
        out.append(_file_op("compute", "count", p, ["--faces"]))
        out.append(_file_op("compute", "hvector", p))
        out.append(_file_op("compute", "volume", p, ["--breakdown"]))
        for omega in _dim_partitions(p):
            out.append(_chern_op(p, omega))
        out.append(_file_op("compute", "gysin", p,
                            ["--facet", "0", "--power", str(p.dim), "--breakdown"]))
        out.append(_file_op("compute", "todd-twisted", p, ["--breakdown"]))
        out.append(_file_op("compute", "signature-twisted", p))
    out.append(lambda mover, oid: Op(oid, "verify", "agw"))

    def corpus_batch(mover, oid):
        return Op(oid, "corpus", "dir", batch=[mover.fresh(p) for p in polys],
                  label="corpus <dir>")
    out.append(corpus_batch)
    return out


def _dilated_family():
    """Sheared dilations in dims 2-4; boxes hold about 10^3 to 3*10^4 points."""
    polys = []
    polys += [gen.simplex(2, k) for k in (25, 35, 45, 60, 75, 95)]
    polys += [gen.box((k, k + 6)) for k in (14, 20, 28, 38, 50, 66)]
    polys += [gen.simplex(3, k) for k in (7, 8, 10, 12, 14, 17)]
    polys += [gen.box((k, k + 1, k + 2)) for k in (4, 5, 7, 9, 11, 13)]
    polys += [gen.product(gen.simplex(2, k), gen.box((k - 2,))) for k in (7, 9, 11, 13)]
    polys += [gen.simplex(4, k) for k in (4, 5, 6, 7)]
    polys += [gen.product(gen.simplex(3, k), gen.box((k,))) for k in (3, 4)]
    return polys


DILATED = _dilated_family()
DILATED_SHEAR = 2  # elementary shears per template, chosen to grow the box 2-3x


def dilated_lattice_templates(seed):
    """Each template shears its polytope its own seeded way."""
    shears = gen.rng_for(seed, "shear")
    out = []
    for p in DILATED:
        commands = [("verify", "pick", ()), ("verify", "todd", ()),
                    ("compute", "count", ("--faces",))]
        if p.dim == 3 and len(p.facets) == 4:
            commands.append(("verify", "tetrahedron", ()))
        for command, kind, flags in commands:
            q = gen.sheared(p, DILATED_SHEAR, shears)
            out.append(_file_op(command, kind, q, flags))
    return out


# (polytope, verify kinds): every polytope also gets compute chern (top
# Chern number, and c_1^n where known) and compute volume.  The kinds left
# out take 0.15-4 s each here; a pass stays near 4 s so a run holds six
# passes (METRICS.md lists them as deferred).
LARGE_FAN = [
    (gen.simplex(4, 1), ("signature",)),
    (gen.simplex(4, 2), ("todd", "pick", "signature", "face-todd")),
    (gen.product(gen.simplex(2, 1), gen.simplex(2, 1)),
     ("todd", "pick", "signature", "face-todd")),
    (gen.box((1, 1, 1, 1)), ("pick", "signature")),
    (gen.simplex(5, 1), ("pick", "signature")),
    (gen.product(gen.simplex(2, 1), gen.box((1, 1))), ("todd", "pick", "signature")),
    (gen.box((2, 2, 2, 2)), ("signature",)),
    (gen.box((1, 1, 1, 1, 1)), ("signature",)),
    (gen.simplex(6, 1), ("signature",)),
    (gen.product(gen.simplex(3, 1), gen.simplex(2, 1)), ("signature",)),
    (gen.product(gen.simplex(4, 1), gen.box((1,))), ("signature",)),
    (gen.product(gen.simplex(3, 1), gen.simplex(3, 1)), ("signature",)),
]
# (facets, triangle dilation, verify kinds) of the blown-up polygons
POLYGONS = [
    (10, 35, ("todd", "pick", "signature", "face-todd")),
    (11, 38, ("todd", "pick", "signature", "face-todd")),
    (12, 40, ("todd", "pick", "signature", "face-todd")),
    (14, 45, ("todd", "pick", "signature", "face-todd")),
    (16, 50, ("todd", "pick", "signature", "face-todd")),
    (18, 55, ("pick", "signature")),
    (20, 60, ("signature",)),
    (24, 80, ("signature",)),
    (30, 120, ("signature",)),
]


def large_fan_templates(seed):
    out = []
    for p, kinds in LARGE_FAN:
        for kind in kinds:
            out.append(_file_op("verify", kind, p))
        omegas = _dim_partitions(p) if p.dim < 5 else [(p.dim,)]
        for omega in omegas:
            out.append(_chern_op(p, omega))
        out.append(_file_op("compute", "volume", p))
    shapes = gen.rng_for(seed, "polygons")
    for m, k, kinds in POLYGONS:
        commands = [("verify", kind, ()) for kind in kinds]
        commands += [("compute", "chern", ("--partition", "2")),
                     ("compute", "chern", ("--partition", "1,1")),
                     ("compute", "volume", ())]
        for command, kind, flags in commands:
            # each template cuts its own seeded polygon
            poly = gen.blown_up_polygon(k, m, shapes)
            out.append(_file_op(command, kind, poly, flags, name="polygon%d" % m))
    return out


WORKLOADS = {
    # name: Workload(name, templates, seconds one pass takes at the seed
    # commit on a 2-core machine); BENCHMARK.json says why each is here
    "corpus-cli": Workload("corpus-cli", corpus_cli_templates, 1.5),
    "dilated-lattice": Workload("dilated-lattice", dilated_lattice_templates, 4.5),
    "large-fan": Workload("large-fan", large_fan_templates, 4.5),
}


def write_inputs(ops, workdir):
    """Write every op's input file (or corpus directory) under workdir."""
    os.makedirs(workdir)
    for op in ops:
        if op.batch is not None:
            op.path = os.path.join(workdir, "batch%05d" % op.oid)
            os.mkdir(op.path)
            for pos, poly in enumerate(op.batch):
                _dump(poly, os.path.join(op.path, "%02d_%s.json" % (pos, poly.name)))
        elif op.poly is not None:
            op.path = os.path.join(workdir, "op%05d.json" % op.oid)
            _dump(op.poly, op.path)


def _dump(poly, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(poly.to_dict(), handle)


# -- reference checks on the program's JSON output ------------------------

def _q(text):
    return Fraction(str(text))


def _signature_over(poly):
    h = poly.ref["h"]
    return Fraction(sum((-1) ** k * x for k, x in enumerate(h)), 2 ** poly.dim)


def check_output(op, code, data):
    """None when the command's output matches the closed-form reference,
    otherwise a one-line reason."""
    if code != 0:
        return "exit code %s" % code
    if op.command == "corpus":
        files = data.get("files", [])
        if not data.get("all_hold") or len(files) != len(op.batch):
            return "corpus batch: all_hold %s over %d files" % (data.get("all_hold"), len(files))
        if not all(all(f["checks"].values()) for f in files):
            return "corpus batch: a check failed"
        return None
    if op.command == "verify":
        if data.get("holds") is not True:
            return "holds is %r" % data.get("holds")
        if op.kind == "agw":
            return None
    p = op.poly
    ref = p.ref
    n = p.dim
    got = want = None
    if op.command == "verify":
        lhs, rhs, bd = _q(data["lhs"]), _q(data["rhs"]), data["breakdown"]
        if op.kind == "pick":
            got = (lhs, rhs, bd["closed_count_by_dim"][str(n)])
            want = (ref["weighted"], ref["weighted"], ref["count"])
        elif op.kind == "todd":
            got, want = (lhs, rhs), (ref["count"], ref["count"])
        elif op.kind == "signature":
            got = (lhs, tuple(bd["h_vector"]))
            want = (_signature_over(p), ref["h"])
        elif op.kind == "face-todd":
            got = (lhs, rhs, len(bd["faces"]))
            want = (ref["face_sum"], ref["face_sum"], sum(ref["f"]))
        elif op.kind == "tetrahedron":
            got = (lhs, _q(bd["volume"]))
            want = (ref["weighted"], ref["volume"])
    else:
        value = data["value"]
        if op.kind == "count":
            faces = data["faces"]
            got = (value, len(faces), sum(f["closed"] for f in faces))
            want = (ref["count"], sum(ref["f"]), ref["face_sum"])
        elif op.kind == "hvector":
            got = (tuple(value), tuple(data["breakdown"]["f_vector"]))
            want = (ref["h"], ref["f"])
        elif op.kind == "volume":
            got = (_q(value),)
            want = (ref["volume"],)
            if "breakdown" in data:
                got += (_q(data["breakdown"]["localization_total"]),)
                want += (ref["volume"],)
        elif op.kind == "chern":
            omega = tuple(int(x) for x in op.flags[1].split(","))
            got, want = _q(value), p.chern(omega)
        elif op.kind == "gysin":
            got, want = _q(value), ref["gysin0"]
        elif op.kind == "todd-twisted":
            got, want = _q(value), ref["count"]
        elif op.kind == "signature-twisted":
            got, want = _q(value), ref["weighted"]
    if want is None:
        return "no reference for %s" % op.label
    if got != want:
        return "%s on %s: got %s, expected %s" % (op.label, p.name, got, want)
    return None


def check_class_value(op, value):
    """None when a localization value the replay computed matches the reference."""
    if value is None:
        return None
    ref = op.poly.ref
    want = {"pick": ref["weighted"], "todd": ref["count"],
            "signature": _signature_over(op.poly), "volume": ref["volume"],
            "todd-twisted": ref["count"], "signature-twisted": ref["weighted"]}[op.kind]
    if value != want:
        return "%s: localization gave %s, expected %s" % (op.label, value, want)
    return None
