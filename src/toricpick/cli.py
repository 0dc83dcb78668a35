"""Command line front end: polytope files in, exact reports out.

The input format is a JSON object {"name", "dim", "facets": [{"normal",
"offset"}, ...]} over integers only.  Reports print as sorted-key JSON or
as a plain table, rationals render as "p/q" (just "p" when the denominator
is 1), and the exit code is 0 when the checked identity holds or the value
was computed, 1 when an identity fails, 2 for invalid input, and 141 when
the reader of standard output closed it early.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .agw import verify_agw
from .errors import (InputError, RouteDisagreementError, ShapeError,
                     ToricError)
from .invariants import (check_face_todd, check_pick, check_tetrahedron,
                         check_todd, check_untwisted_signature,
                         per_vertex_breakdown, twisted_signature_breakdown,
                         twisted_todd_breakdown, volume_breakdown)
from .lattice import count_points
from .localization import (chart_weights, chern_number, choose_generic,
                           gysin_power, gysin_power_v3, integrate_monomial)
from .polytope import (HPolytope, enumerate_vertices, h_vector, signature_from_h,
                       validate, volume)

# kind: (check, takes --u) for the identities on one polytope file; corpus runs
# them all in this order, and a ShapeError marks one not stated for the shape
CHECKS = {
    "pick": (check_pick, True),
    "todd": (check_todd, True),
    "face-todd": (check_face_todd, False),
    "signature": (check_untwisted_signature, True),
    "tetrahedron": (check_tetrahedron, False),
}
CORPUS_CHECKS = (*CHECKS, "u-indep")
COMPUTE_KINDS = ("chern", "count", "hvector", "volume", "gysin",
                 "signature-twisted", "todd-twisted")


def format_rational(x):
    """Canonical rendering: "p/q", with "/q" omitted when q = 1."""
    return str(Fraction(x))


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
        if not (isinstance(entry, dict) and len(entry) == 2
                and "normal" in entry and "offset" in entry):
            raise InputError('%s: facet %d must be an object with exactly '
                             '"normal" and "offset"' % (source, pos))
        normal = entry["normal"]
        if not isinstance(normal, list):
            raise InputError("%s: facet %d normal must be a list" % (source, pos))
        offset = entry["offset"]
        # one exact type test over the facet; _expect_int names a bad entry
        if {type(offset), *map(type, normal)} != {int}:
            for x in normal:
                _expect_int(x, "facet %d normal entry" % pos, source)
            _expect_int(offset, "facet %d offset" % pos, source)
        facets.append((normal, offset))
    try:
        p = HPolytope(dim, facets, name)
        validate(p)
    except ToricError as e:
        # name the source but keep the class, which says what is wrong
        e.args = ("%s: %s" % (source, e),)
        raise
    return p


def load_polytope(path):
    """Read, parse and validate a polytope file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror or e)) from e
    except UnicodeDecodeError as e:
        raise InputError("%s: not UTF-8 text: %s" % (path, e)) from e
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # RecursionError: arrays or objects nested past the parser's depth
        raise InputError("%s: invalid JSON: %s" % (path, e)) from e
    return polytope_from_dict(data, source=path)


def jsonable(value):
    """Map report payloads onto JSON types; rationals become strings."""
    if isinstance(value, (int, str)):  # bool included
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError("cannot serialize %r" % (value,))


def report_to_dict(report):
    """The stable JSON shape of a verification report, as a raw payload."""
    return {
        "identity": report.identity,
        "polytope": report.polytope or "",
        "lhs": format_rational(report.lhs),
        "rhs": format_rational(report.rhs),
        "holds": bool(report.holds),
        "breakdown": report.breakdown,
        "generic_vectors": report.generic_vectors,
    }


def render_json(data):
    """json.dumps(jsonable(data), sort_keys=True, indent=2) in one pass over
    dicts with string keys, lists, tuples, str, int, bool and Fraction."""
    return _render(data, "\n")


def _render(value, pad):
    kind = type(value)
    if kind is Fraction:
        return '"%s"' % value  # as format_rational renders it
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []  # int members in place; a loop, unlike a comprehension, is no call
        for k, v in sorted(value.items()):
            items.append("%s: %s" % (_quote(k), str(v) if type(v) is int else _render(v, inner)))
        return "{%s%s%s}" % (inner, ("," + inner).join(items), pad)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = []
        for v in value:
            items.append(str(v) if type(v) is int else _render(v, inner))
        return "[%s%s%s]" % (inner, ("," + inner).join(items), pad)
    if kind is bool:
        return "true" if value else "false"
    raise TypeError("cannot serialize %r" % (value,))


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
            "(%s)" % ",".join(map(str, u)) for u in data["generic_vectors"]))
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
        lines += ["faces", "  %-4s %-16s %8s %8s" % ("dim", "facets", "closed", "relint")]
        for face in data["faces"]:
            lines.append("  %-4d %-16s %8d %8d" % (
                face["dim"], ",".join(map(str, face["facets"])) or "-",
                face["closed"], face["relint"]))
    if "breakdown" in data:
        lines.append("breakdown")
        _flatten(data["breakdown"], "  ", lines)
    return "\n".join(lines)


def render_corpus_table(data):
    width = max(len(row["file"]) for row in data["files"])
    lines = ["%-*s  %s" % (width, "file", "  ".join("%-11s" % c for c in CORPUS_CHECKS))]
    for row in data["files"]:
        checks = row["checks"]
        cells = ("-" if c not in checks else "ok" if checks[c] else "FAIL" for c in CORPUS_CHECKS)
        lines.append("%-*s  %s" % (width, row["file"], "  ".join("%-11s" % c for c in cells)))
    lines.append("all identities hold" if data["all_hold"] else "FAILURES PRESENT")
    return "\n".join(lines)


def _parse_u(text, p):
    try:
        u = tuple(map(int, text.split(",")))
    except ValueError:
        raise InputError("--u must be a comma separated integer vector, got %r" % text)
    chart_weights(p, u)
    return u


def _parse_partition(text):
    if text is None:
        raise InputError("compute chern requires --partition")
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise InputError("--partition must be comma separated integers, got %r" % text)


# each command returns (exit code, payload, table renderer); main prints it
def cmd_verify(args):
    check, takes_u = CHECKS.get(args.kind, (None, False))
    if args.u is not None and not takes_u:
        raise InputError("--u does not apply to verify %s" % args.kind)
    if args.kind == "agw":
        if args.file is not None:
            raise InputError("verify agw takes no polytope file")
        report = verify_agw()
    elif args.file is None:
        raise InputError("verify %s requires a polytope file" % args.kind)
    else:
        p = load_polytope(args.file)
        report = check(p) if args.u is None else check(p, u=_parse_u(args.u, p))
    return (0 if report.holds else 1), report_to_dict(report), render_report_table


def cmd_compute(args):
    kind = args.kind
    if args.u is not None and (kind in ("count", "hvector")
                               or kind == "volume" and not args.breakdown):
        raise InputError("--u does not apply to compute %s" % kind)
    # each option that one kind alone reads, and its value when not given
    for option, owner, absent in (("partition", "chern", None), ("facet", "gysin", None),
                                  ("power", "gysin", None), ("faces", "count", False)):
        if kind != owner and getattr(args, option) is not absent:
            raise InputError("--%s does not apply to compute %s" % (option, kind))
    p = load_polytope(args.file)
    u = _parse_u(args.u, p) if args.u is not None else None
    data = {"command": "compute", "kind": kind, "polytope": p.name or ""}
    if kind == "chern":
        omega = _parse_partition(args.partition)
        data["value"] = chern_number(p, omega, u=u)
        if args.breakdown:
            data["breakdown"] = {"partition": list(omega)}
    elif kind == "count":
        fc = count_points(p)
        data["value"] = fc.total
        if args.faces:
            data["faces"] = [{"dim": d, "facets": facets, "closed": closed, "relint": relint}
                             for d, facets, closed, relint, _ in fc.face_rows()]
    elif kind == "hvector":
        charts = enumerate_vertices(p)
        hv = h_vector(charts)
        data["value"] = list(hv.h)
        data["breakdown"] = {"f_vector": list(charts.f_vector), "signature": signature_from_h(hv)}
    elif kind == "volume":
        data["value"] = volume(p)
        if args.breakdown:
            total, per_vertex = volume_breakdown(p, u)
            data["breakdown"] = {"localization_total": total,
                                 "per_vertex": per_vertex_breakdown(per_vertex)}
    elif kind == "gysin":
        if args.facet is None or args.power is None:
            raise InputError("compute gysin requires --facet and --power")
        if u is None:
            u = choose_generic(enumerate_vertices(p))
        data["value"] = gysin_power(p, args.facet, args.power, u)
        if args.breakdown:
            exponents = tuple(args.power if i == args.facet else 0
                              for i in range(len(p.facets)))
            breakdown = data["breakdown"] = {"monomial_route": integrate_monomial(p, exponents, u)}
            if p.dim == 3:
                breakdown["triple_product_route"] = gysin_power_v3(p, args.facet, u)
    else:
        twisted = (twisted_signature_breakdown if kind == "signature-twisted"
                   else twisted_todd_breakdown)
        data["value"], per_vertex = twisted(p, u, terms=args.breakdown)
        if args.breakdown:
            data["breakdown"] = {"per_vertex": per_vertex_breakdown(per_vertex)}
    return 0, data, render_value_table


def _corpus_row(path):
    p = load_polytope(path)
    reports = {}
    for kind, (check, _) in CHECKS.items():
        try:
            reports[kind] = check(p)
        except ShapeError:
            pass
    results = {kind: bool(report.holds) for kind, report in reports.items()}
    pick = reports["pick"]
    results["u-indep"] = pick.breakdown["lhs_at_second_vector"] == pick.lhs
    return p, results


def cmd_corpus(args):
    try:
        entries = sorted(name for name in os.listdir(args.dir) if name.endswith(".json"))
    except OSError as e:
        raise InputError("cannot list %s: %s" % (args.dir, e.strerror or e)) from e
    if not entries:
        raise InputError("no .json polytope files in %s" % args.dir)
    files = []
    for entry in entries:
        path = os.path.join(args.dir, entry)
        try:
            p, checks = _corpus_row(path)
        except ToricError as e:
            # name the file but keep the class, which sets the exit code
            if not str(e).startswith(path):
                e.args = ("%s: %s" % (path, e),)
            raise
        files.append({"file": entry, "polytope": p.name or "",
                      "holds": all(checks.values()), "checks": checks})
    all_hold = all(row["holds"] for row in files)
    return (0 if all_hold else 1), {"files": files, "all_hold": all_hold}, render_corpus_table


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricpick",
        description="Exact lattice point, signature and characteristic number "
                    "identities for Delzant polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="check one identity; exit 0 iff it holds")
    pv.add_argument("kind", choices=(*CHECKS, "agw"))
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
    parser.commands = {"verify": pv, "compute": pc, "corpus": pk}
    return parser


def _common_flags(sub):
    sub.add_argument("--format", choices=("json", "table"),
                     help="default: table on a terminal, json when piped")
    sub.add_argument("--u", help="override the generic vector, e.g. 1,2 "
                                 "(a second vector is still chosen internally)")


# parsing does not change the parser, so one instance serves every call
_parser = lru_cache(maxsize=1)(build_parser)


def _read_plain(command, tokens):
    """The namespace _parser().parse_args([command, *tokens]) returns, read
    straight from the command's own actions when the line is plain: the
    positionals come first, and each later token is an exact option string
    of a store or store_true action, given once, or the value after a store
    option, which does not start with "-" and passes the action's type and
    choices.  Any other line gives None, for argparse to answer: help,
    prefixes, "=", "--", repeats and every usage error."""
    sub = _parser().commands.get(command)
    if sub is None:
        return None
    n = 0
    while n < len(tokens) and tokens[n][:1] not in ("", "-"):
        n += 1
    given = {}  # action: the token of its value, or True for a store_true flag
    rest = iter(tokens[n:])
    for token in rest:
        action = sub._option_string_actions.get(token)
        kind = type(action)
        if action in given or kind not in (argparse._StoreAction, argparse._StoreTrueAction):
            return None
        given[action] = next(rest, "") if kind is argparse._StoreAction else True
    words = iter(tokens[:n])
    args = argparse.Namespace(command=command, **sub._defaults)
    for action in sub._actions:
        token = given.get(action) if action.option_strings else next(words, None)
        if token is None:
            if action.required:
                return None
            if argparse.SUPPRESS not in (action.dest, action.default):
                setattr(args, action.dest, action.default)
            continue
        if token is True:
            value = action.const
        elif token[:1] in ("", "-") or action.nargs not in (None, "?"):
            return None
        else:
            try:
                value = token if action.type is None else action.type(token)
            except (TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(args, action.dest, value)
    return None if next(words, None) is not None else args


def parse_command(argv=None):
    """_parser().parse_args(argv), read by _read_plain when it can."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv[0], argv[1:]) if argv else None
    return _parser().parse_args(argv) if args is None else args


def main(argv=None):
    """Run one command; print its payload as JSON, or as a table with
    --format table or, without --format, when stdout is a terminal."""
    args = parse_command(argv)
    try:
        code, payload, render_table = args.func(args)
    except ToricError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1 if isinstance(e, RouteDisagreementError) else 2
    if (args.format or ("table" if sys.stdout.isatty() else "json")) == "json":
        print(render_json(payload))
    else:
        print(render_table(jsonable(payload)))
    return code


def entry():
    """Console entry point.  A reader that closes stdout early (say `head`)
    ends the run with 141, as SIGPIPE would; stdout then goes to devnull."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
