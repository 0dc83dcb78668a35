"""Command line front end: polytope files in, exact reports out.

The input format is a JSON object {"name", "dim", "facets": [{"normal",
"offset"}, ...]} over integers only.  Reports print as sorted-key JSON or
as a plain table, rationals render as "p/q" (just "p" when the denominator
is 1), and the exit code is 0 when the checked identity holds or the value
was computed, 1 when an identity fails, and 2 for invalid input.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .agw import verify_agw
from .errors import InputError, RouteDisagreementError, ToricError
from .invariants import (check_face_todd, check_pick, check_tetrahedron,
                         check_todd, check_untwisted_signature,
                         per_vertex_breakdown, twisted_signature_breakdown,
                         twisted_todd_breakdown, volume_breakdown)
from .lattice import count_points
from .localization import (assert_generic, chern_number, check_partition,
                           choose_generic, gysin_power, gysin_power_v3,
                           integrate_monomial)
from .polytope import (HPolytope, enumerate_vertices, face_lattice, h_vector,
                       signature_from_h, validate, volume)

VERIFY_KINDS = ("pick", "todd", "face-todd", "tetrahedron", "signature", "agw")
COMPUTE_KINDS = ("chern", "count", "hvector", "volume", "gysin",
                 "signature-twisted", "todd-twisted")


def format_rational(x):
    """Canonical rendering: "p/q", with "/q" omitted when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _expect_int(value, what, source):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("%s: %s must be an integer, got %r" % (source, what, value))
    return value


def polytope_from_dict(data, source="<input>"):
    """Build and fully validate an HPolytope from a parsed JSON object."""
    if not isinstance(data, dict):
        raise InputError("%s: top level must be a JSON object" % source)
    extra = sorted(set(data) - {"name", "dim", "facets"})
    if extra:
        raise InputError("%s: unknown keys %s" % (source, extra))
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("%s: name must be a string" % source)
    if "dim" not in data or "facets" not in data:
        raise InputError('%s: required keys are "dim" and "facets"' % source)
    dim = _expect_int(data["dim"], "dim", source)
    raw = data["facets"]
    if not isinstance(raw, list) or not raw:
        raise InputError("%s: facets must be a non-empty list" % source)
    facets = []
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict) or set(entry) != {"normal", "offset"}:
            raise InputError('%s: facet %d must be an object with exactly '
                             '"normal" and "offset"' % (source, pos))
        normal = entry["normal"]
        if not isinstance(normal, list):
            raise InputError("%s: facet %d normal must be a list" % (source, pos))
        normal = [_expect_int(x, "facet %d normal entry" % pos, source) for x in normal]
        offset = _expect_int(entry["offset"], "facet %d offset" % pos, source)
        facets.append((normal, offset))
    try:
        p = HPolytope(dim, facets, name)
        validate(p)
    except ToricError as e:
        raise InputError("%s: %s" % (source, e)) from e
    return p


def load_polytope(path):
    """Read, parse and validate a polytope file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror or e)) from e
    try:
        data = json.loads(text)
    except ValueError as e:
        raise InputError("%s: invalid JSON: %s" % (path, e)) from e
    return polytope_from_dict(data, source=path)


def dump_polytope(p):
    """Serialize a polytope to the input file format, one facet per line."""
    lines = ["{"]
    if p.name is not None:
        lines.append('  "name": %s,' % json.dumps(p.name))
    lines.append('  "dim": %d,' % p.dim)
    lines.append('  "facets": [')
    rows = ['    {"normal": %s, "offset": %d}' % (json.dumps(list(normal)), offset)
            for normal, offset in p.facets]
    lines.append(",\n".join(rows))
    lines.extend(["  ]", "}"])
    return "\n".join(lines) + "\n"


def jsonable(value):
    """Map report payloads onto JSON types; rationals become strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError("cannot serialize %r" % (value,))


def report_to_dict(report):
    """The stable JSON shape of a verification report."""
    return {
        "identity": report.identity,
        "polytope": report.polytope or "",
        "lhs": format_rational(report.lhs),
        "rhs": format_rational(report.rhs),
        "holds": bool(report.holds),
        "breakdown": jsonable(report.breakdown),
        "generic_vectors": [list(u) for u in report.generic_vectors],
    }


def render_json(data):
    return json.dumps(data, sort_keys=True, indent=2)


def _plain(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def _flatten(mapping, indent, lines):
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, dict):
            lines.append("%s%s" % (indent, key))
            _flatten(value, indent + "  ", lines)
        else:
            lines.append("%s%-24s %s" % (indent, key, _plain(value)))


def render_report_table(data):
    lines = [
        "identity   %s" % data["identity"],
        "polytope   %s" % data["polytope"],
        "lhs        %s" % data["lhs"],
        "rhs        %s" % data["rhs"],
        "holds      %s" % ("yes" if data["holds"] else "NO"),
    ]
    if data["generic_vectors"]:
        lines.append("u vectors  %s" % "  ".join(
            "(%s)" % ",".join(str(c) for c in u) for u in data["generic_vectors"]))
    if data["breakdown"]:
        lines.append("breakdown")
        _flatten(data["breakdown"], "  ", lines)
    return "\n".join(lines)


def render_value_table(data):
    lines = [
        "polytope   %s" % data["polytope"],
        "kind       %s" % data["kind"],
        "value      %s" % _plain(data["value"]),
    ]
    if "faces" in data:
        lines.append("faces")
        lines.append("  %-4s %-16s %8s %8s" % ("dim", "facets", "closed", "relint"))
        for face in data["faces"]:
            lines.append("  %-4d %-16s %8d %8d" % (
                face["dim"], ",".join(str(i) for i in face["facets"]) or "-",
                face["closed"], face["relint"]))
    if "breakdown" in data:
        lines.append("breakdown")
        _flatten(data["breakdown"], "  ", lines)
    return "\n".join(lines)


def _chosen_format(args):
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


def _parse_u(text, p):
    try:
        u = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError("--u must be a comma separated integer vector, got %r" % text)
    if len(u) != p.dim:
        raise InputError("--u has length %d, expected %d" % (len(u), p.dim))
    assert_generic(p, u)
    return u


def _parse_partition(text, n):
    if text is None:
        raise InputError("compute chern requires --partition")
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("--partition must be comma separated integers, got %r" % text)
    parts = tuple(sorted(parts, reverse=True))
    omega = check_partition(parts, n)
    return omega


def cmd_verify(args):
    if args.kind == "agw":
        if args.file is not None:
            raise InputError("verify agw takes no polytope file")
        if args.u is not None:
            raise InputError("--u does not apply to the universal identity")
        report = verify_agw()
    else:
        if args.file is None:
            raise InputError("verify %s requires a polytope file" % args.kind)
        p = load_polytope(args.file)
        u = _parse_u(args.u, p) if args.u is not None else None
        if args.kind == "pick":
            report = check_pick(p, u=u)
        elif args.kind == "todd":
            report = check_todd(p, u=u)
        elif args.kind == "signature":
            report = check_untwisted_signature(p, u=u)
        elif args.kind == "face-todd":
            if u is not None:
                raise InputError("--u does not apply to face-todd; faces have mixed dimensions")
            report = check_face_todd(p)
        else:
            if u is not None:
                raise InputError("--u does not apply to the tetrahedron identity")
            report = check_tetrahedron(p)
    data = report_to_dict(report)
    if _chosen_format(args) == "json":
        print(render_json(data))
    else:
        print(render_report_table(data))
    return 0 if report.holds else 1


def _compute_value(args, p, u):
    """Return (value, extras) for a compute sub-kind."""
    kind = args.kind
    n = p.dim
    extras = {}
    if kind == "chern":
        omega = _parse_partition(args.partition, n)
        value = chern_number(p, omega, u=u)
        if args.breakdown:
            extras["breakdown"] = {"partition": list(omega)}
    elif kind == "count":
        fc = count_points(p)
        value = fc.total
        if args.faces:
            fl = fc.lattice
            extras["faces"] = [
                {"dim": f.dim, "facets": sorted(f.facet_set),
                 "closed": fc.closed[i], "relint": fc.relint[i]}
                for i, f in enumerate(fl.faces)]
    elif kind == "hvector":
        fl = face_lattice(p)
        hv = h_vector(fl)
        value = list(hv.h)
        extras["breakdown"] = {
            "f_vector": list(fl.f_vector),
            "signature": signature_from_h(hv),
        }
    elif kind == "volume":
        value = volume(p)
        if args.breakdown:
            total, per_vertex = volume_breakdown(p, u)
            extras["breakdown"] = {
                "localization_total": total,
                "per_vertex": per_vertex_breakdown(per_vertex),
            }
    elif kind == "gysin":
        if args.facet is None or args.power is None:
            raise InputError("compute gysin requires --facet and --power")
        if not 0 <= args.facet < len(p.facets):
            raise InputError("facet index %d out of range [0, %d)"
                             % (args.facet, len(p.facets)))
        uu = u if u is not None else choose_generic(enumerate_vertices(p))
        value = gysin_power(p, args.facet, args.power, uu)
        if args.breakdown:
            exponents = tuple(args.power if i == args.facet else 0
                              for i in range(len(p.facets)))
            breakdown = {"monomial_route": integrate_monomial(p, exponents, uu)}
            if n == 3:
                breakdown["triple_product_route"] = gysin_power_v3(p, args.facet, uu)
            extras["breakdown"] = breakdown
    else:
        twisted = (twisted_signature_breakdown if kind == "signature-twisted"
                   else twisted_todd_breakdown)
        value, per_vertex = twisted(p, u)
        if args.breakdown:
            extras["breakdown"] = {"per_vertex": per_vertex_breakdown(per_vertex)}
    return value, extras


def cmd_compute(args):
    p = load_polytope(args.file)
    u = _parse_u(args.u, p) if args.u is not None else None
    value, extras = _compute_value(args, p, u)
    data = {"command": "compute", "kind": args.kind, "polytope": p.name or ""}
    data["value"] = jsonable(value)
    for key, payload in extras.items():
        data[key] = jsonable(payload)
    if _chosen_format(args) == "json":
        print(render_json(data))
    else:
        print(render_value_table(data))
    return 0


CORPUS_CHECKS = ("pick", "todd", "face-todd", "signature", "tetrahedron", "u-indep")


def _corpus_row(path):
    p = load_polytope(path)
    pick = check_pick(p)
    todd = check_todd(p)
    face_todd = check_face_todd(p)
    signature = check_untwisted_signature(p)
    results = {
        "pick": bool(pick.holds),
        "todd": bool(todd.holds),
        "face-todd": bool(face_todd.holds),
        "signature": bool(signature.holds),
        "u-indep": pick.breakdown["lhs_at_second_vector"] == pick.lhs,
    }
    if p.dim == 3 and len(p.facets) == 4:
        results["tetrahedron"] = bool(check_tetrahedron(p).holds)
    else:
        results["tetrahedron"] = None
    return p, results


def cmd_corpus(args):
    try:
        entries = sorted(name for name in os.listdir(args.dir) if name.endswith(".json"))
    except OSError as e:
        raise InputError("cannot list %s: %s" % (args.dir, e.strerror or e)) from e
    if not entries:
        raise InputError("no .json polytope files in %s" % args.dir)
    rows = []
    for entry in entries:
        path = os.path.join(args.dir, entry)
        try:
            p, results = _corpus_row(path)
        except ToricError as e:
            if str(e).startswith(path):
                raise
            raise InputError("%s: %s" % (path, e)) from e
        holds = all(v for v in results.values() if v is not None)
        rows.append((entry, p.name or "", results, holds))
    all_hold = all(holds for _, _, _, holds in rows)
    if _chosen_format(args) == "json":
        payload = {
            "files": [
                {"file": entry, "polytope": name, "holds": holds,
                 "checks": {k: results[k] for k in CORPUS_CHECKS if results[k] is not None}}
                for entry, name, results, holds in rows],
            "all_hold": all_hold,
        }
        print(render_json(payload))
    else:
        width = max(len(entry) for entry, _, _, _ in rows)
        header = "%-*s  %s" % (width, "file", "  ".join("%-11s" % c for c in CORPUS_CHECKS))
        lines = [header]
        for entry, _, results, _ in rows:
            cells = []
            for check in CORPUS_CHECKS:
                value = results[check]
                cells.append("%-11s" % ("-" if value is None else ("ok" if value else "FAIL")))
            lines.append("%-*s  %s" % (width, entry, "  ".join(cells)))
        lines.append("all identities hold" if all_hold else "FAILURES PRESENT")
        print("\n".join(lines))
    return 0 if all_hold else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricpick",
        description="Exact lattice point, signature and characteristic number "
                    "identities for Delzant polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="check one identity; exit 0 iff it holds")
    pv.add_argument("kind", choices=VERIFY_KINDS)
    pv.add_argument("file", nargs="?", help="polytope JSON file (omitted for agw)")
    _common_flags(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("compute", help="compute one exact invariant")
    pc.add_argument("kind", choices=COMPUTE_KINDS)
    pc.add_argument("file", help="polytope JSON file")
    pc.add_argument("--partition", help="comma separated parts summing to dim (chern)")
    pc.add_argument("--facet", type=int, help="facet index, 0-based (gysin)")
    pc.add_argument("--power", type=int, help="exponent; must equal dim (gysin)")
    pc.add_argument("--faces", action="store_true", help="per-face table (count)")
    pc.add_argument("--breakdown", action="store_true", help="include per-vertex terms")
    _common_flags(pc)
    pc.set_defaults(func=cmd_compute)

    pk = sub.add_parser("corpus", help="run every applicable check over a directory")
    pk.add_argument("dir", help="directory of polytope JSON files")
    pk.add_argument("--format", choices=("json", "table"))
    pk.set_defaults(func=cmd_corpus)
    return parser


def _common_flags(sub):
    sub.add_argument("--format", choices=("json", "table"),
                     help="default: table on a terminal, json when piped")
    sub.add_argument("--u", help="override the generic vector, e.g. 1,2 "
                                 "(a second vector is still chosen internally)")


# parsing does not change the parser, so one instance serves every call
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except RouteDisagreementError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except ToricError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
