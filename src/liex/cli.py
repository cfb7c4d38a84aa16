"""Command line front end.

Subcommands mirror the library: validate, expand, reduce, subalgebra,
identify, contract, search, graph, catalog, enumerate-semigroups.  All data
goes through JSON on stdout so commands compose in pipes, e.g.

    liex expand --semigroup S2 --algebra sl2R | liex identify --span "E1,E2,E3"

Exit codes: 0 success, 1 malformed input (bad JSON, unknown names,
out-of-range parameters, enumeration bound exceeded), 2 domain errors
(failed validation used as a precondition, no zero element, non-closed
span, divergent limit, no rational witness) with a JSON error envelope
{"error": {"code", "message", "witness"?}} on stdout, 141 (the shell's
status for SIGPIPE) when the reader of stdout closes it early, with
nothing on stderr.

Stdout is byte for byte json.dumps(obj, indent=2) plus a newline, written
by jsonout.write_json.

The environment variable LIEX_MAX_ORDER caps semigroup enumeration and
search order (default 4).  --seed is accepted for interface stability;
every computation here is deterministic and the value is ignored.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .contraction import (BUILTIN_FAMILIES, Divergent, LaurentBasisFamily,
                          limit, transform_parametric, verify_contraction)
from .errors import InputFormatError, LiexError
from .expansion import extract_subalgebra, parse_span, s_expand, zero_reduce
from .identify import CARTAN_DIMENSION, identify3, signature
from .jsonout import write_json
from .liealg import CATALOG_NAMES, StructureTensor, resolve_algebra, validate_lie
from .search import (connectivity_matrix, connectivity_to_dot,
                     connectivity_to_json, find_connection)
from .semigroup import (BUILTIN_SEMIGROUPS, DEFAULT_MAX_ORDER, SemigroupTable,
                        enumerate_abelian_semigroups, validate_semigroup)

ALL3_LABELS = ("3A1", "A2.1+A1", "A3.1", "A3.2", "A3.3",
               "A3.4(a=1/2)", "A3.5(b=1)", "sl2R", "so3")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; 2 is reserved for domain
    # errors here, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _emit(obj):
    write = sys.stdout.write
    write_json(obj, write)
    write("\n")


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputFormatError("cannot read %r: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise InputFormatError("invalid JSON in %r: %s" % (path, e))


def load_algebra(arg):
    """Catalog label, '-' for stdin, or a tensor JSON file path."""
    if arg == "-" or os.path.exists(arg):
        return StructureTensor.from_json(_read_json(arg))
    return resolve_algebra(arg)


def load_semigroup(arg):
    if arg in BUILTIN_SEMIGROUPS:
        return BUILTIN_SEMIGROUPS[arg]
    if arg == "-" or os.path.exists(arg):
        return SemigroupTable.from_json(_read_json(arg))
    raise InputFormatError("unknown semigroup %r (builtins: %s; or give a "
                           "JSON file)" % (arg, ", ".join(sorted(BUILTIN_SEMIGROUPS))))


def load_family(arg):
    if arg in BUILTIN_FAMILIES:
        return BUILTIN_FAMILIES[arg]
    if arg == "-" or os.path.exists(arg):
        return LaurentBasisFamily.from_json(_read_json(arg))
    raise InputFormatError("unknown family %r (builtins: %s; or give a "
                           "JSON file)" % (arg, ", ".join(sorted(BUILTIN_FAMILIES))))


def _load_matrix(path):
    obj = _read_json(path)
    try:
        return [[Fraction(x) for x in row] for row in obj]
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputFormatError("matrix file %r must hold rows of rationals" % (path,))


def _max_order_cap():
    raw = os.environ.get("LIEX_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        raise InputFormatError("LIEX_MAX_ORDER must be an integer, got %r" % (raw,))
    if cap < 1:
        raise InputFormatError("LIEX_MAX_ORDER must be positive")
    return cap


def _check_max_order(max_order):
    if max_order < 1:
        raise InputFormatError("max order must be positive")
    cap = _max_order_cap()
    if max_order > cap:
        raise InputFormatError("max order %d exceeds the bound %d "
                               "(set LIEX_MAX_ORDER to raise it)"
                               % (max_order, cap))


def cmd_validate(args):
    if not args.algebra and not args.semigroup:
        raise InputFormatError("give --algebra and/or --semigroup to validate")
    out = {}
    if args.algebra:
        rep = validate_lie(load_algebra(args.algebra))
        out["algebra"] = {
            "ok": rep["ok"],
            "antisymmetry": [list(w) for w in rep["antisymmetry"]],
            "jacobi": [[i, j, k, l, str(res)] for i, j, k, l, res in rep["jacobi"]],
        }
        if not rep["ok"]:
            w = out["algebra"]["jacobi"][0]
            out["error"] = {"code": "not_a_lie_algebra",
                            "message": "tensor fails validation", "witness": w}
    if args.semigroup:
        rep = validate_semigroup(load_semigroup(args.semigroup))
        out["semigroup"] = {
            "ok": rep["ok"],
            "commutativity": [list(w) for w in rep["commutativity"]],
            "associativity": [list(w) for w in rep["associativity"]],
        }
        if not rep["ok"] and "error" not in out:
            w = (out["semigroup"]["associativity"]
                 or out["semigroup"]["commutativity"])[0]
            out["error"] = {"code": "not_a_semigroup",
                            "message": "table fails validation", "witness": w}
    _emit(out)
    return 2 if "error" in out else 0


def cmd_expand(args):
    _emit(s_expand(load_semigroup(args.semigroup), load_algebra(args.algebra)).to_json())
    return 0


def cmd_reduce(args):
    _emit(zero_reduce(load_semigroup(args.semigroup), load_algebra(args.algebra)).to_json())
    return 0


def cmd_subalgebra(args):
    ambient = load_algebra(args.algebra)
    vecs = parse_span(args.span, ambient.dim)
    _emit(extract_subalgebra(ambient, vecs).to_json())
    return 0


def cmd_identify(args):
    c = load_algebra(args.algebra)
    if args.span:
        c = extract_subalgebra(c, parse_span(args.span, c.dim))
    ident = identify3(c)
    sig = signature(c)
    out = {
        "class": ident.label,
        "full_label": ident.full_label(),
        "witness": [[str(x) for x in row] for row in ident.witness],
        "cartan_dimension": CARTAN_DIMENSION[ident.label],
        "invariants": {
            "dim": sig.dim,
            "dim_derived": sig.dim_derived,
            "dim_center": sig.dim_center,
            "unimodular": sig.unimodular,
            "solv_degree": sig.solv_degree,
            "nilp_degree": sig.nilp_degree,
            "killing_rank": sig.killing_rank,
            "killing_signature": list(sig.killing_signature),
            "adjoint_parameter": None if sig.adjoint_parameter is None
                                 else str(sig.adjoint_parameter),
        },
    }
    if ident.param is not None:
        out["a" if ident.label == "A3.4" else "b"] = str(ident.param)
    _emit(out)
    return 0


def cmd_contract(args):
    src = load_algebra(args.algebra)
    fam = load_family(args.family)
    if args.target:
        pc = _load_matrix(args.post_change) if args.post_change else None
        report = verify_contraction(src, fam, args.target, post_change=pc)
        _emit(report)
        return 0 if report["ok"] else 2
    if args.post_change:
        raise InputFormatError("--post-change needs --target")
    lim = limit(transform_parametric(src, fam))
    if isinstance(lim, Divergent):
        _emit({"error": {"code": "divergent_limit",
                         "message": "structure constant (%d,%d,%d) has a pole "
                                    "of order %d at the limit point"
                                    % (lim.i, lim.j, lim.k, -lim.valuation),
                         "witness": lim.to_json()["divergent"]}})
        return 2
    _emit(lim.to_json())
    return 0


def _parse_modes(raw):
    modes = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not modes:
        raise InputFormatError("no search modes given")
    return modes


def cmd_search(args):
    _check_max_order(args.max_order)
    src = load_algebra(args.algebra)
    pc = _load_matrix(args.pre_change) if args.pre_change else None
    res = find_connection(src, args.target, max_order=args.max_order,
                          modes=_parse_modes(args.modes), pre_change=pc)
    _emit(res.to_json())
    return 0


def cmd_graph(args):
    _check_max_order(args.max_order)
    if args.labels == "all3":
        labels = list(ALL3_LABELS)
    else:
        labels = [x.strip() for x in args.labels.split(",") if x.strip()]
        if not labels:
            raise InputFormatError("no labels given")
    report = connectivity_matrix(labels, max_order=args.max_order,
                                 modes=_parse_modes(args.modes))
    if args.dot is not None:
        dot = connectivity_to_dot(report) + "\n"
        if args.dot == "-":
            sys.stdout.write(dot)
        else:
            try:
                with open(args.dot, "w") as fh:
                    fh.write(dot)
            except OSError as e:
                raise InputFormatError("cannot write %r: %s" % (args.dot, e))
    else:
        _emit(connectivity_to_json(report))
    return 0


def cmd_catalog(args):
    if args.name is None:
        _emit({"names": list(CATALOG_NAMES),
               "parametric": {"A3.4": "a, rational, 0 < |a| <= 1",
                              "A3.5": "b, rational, b >= 0"}})
        return 0
    _emit(resolve_algebra(args.name).to_json())
    return 0


def cmd_enumerate_semigroups(args):
    out = enumerate_abelian_semigroups(args.order,
                                       up_to_isomorphism=not args.labelled,
                                       max_order=_max_order_cap())
    _emit({"order": args.order,
           "up_to_isomorphism": not args.labelled,
           "count": len(out),
           "tables": [[list(r) for r in s.table] for s in out]})
    return 0


def build_parser():
    p = _Parser(prog="liex",
                description="Exact semigroup expansions of Lie algebras.")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted and ignored; all computation is deterministic")
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("validate", help="check a tensor and/or a semigroup table")
    q.add_argument("--algebra", help="catalog label, JSON file, or - for stdin")
    q.add_argument("--semigroup", help="builtin name, JSON file, or - for stdin")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("expand", help="semigroup expansion S x g")
    q.add_argument("--semigroup", required=True)
    q.add_argument("--algebra", required=True)
    q.set_defaults(func=cmd_expand)

    q = sub.add_parser("reduce", help="expansion with the zero part cut out")
    q.add_argument("--semigroup", required=True)
    q.add_argument("--algebra", required=True)
    q.add_argument("--mode", choices=["zero"], default="zero",
                   help="reduction flavor (only zero for now)")
    q.set_defaults(func=cmd_reduce)

    q = sub.add_parser("subalgebra", help="restrict a tensor to a closed span")
    q.add_argument("--algebra", required=True)
    q.add_argument("--span", required=True,
                   help="comma-separated combinations, e.g. 'E1,E2-E3,2E4'")
    q.set_defaults(func=cmd_subalgebra)

    q = sub.add_parser("identify",
                       help="classify a 3-dim tensor, with an exact witness")
    q.add_argument("--algebra", "--input", default="-",
                   help="catalog label, JSON file, or - for stdin (default)")
    q.add_argument("--span", help="first restrict to this span")
    q.set_defaults(func=cmd_identify)

    q = sub.add_parser("contract", help="limit of a parametric basis family")
    q.add_argument("--algebra", "--source", required=True, dest="algebra")
    q.add_argument("--family", required=True,
                   help="builtin name (UFE) or family JSON file")
    q.add_argument("--target", help="verify the limit against this label")
    q.add_argument("--post-change",
                   help="JSON matrix applied to the limit before comparison")
    q.set_defaults(func=cmd_contract)

    q = sub.add_parser("search", help="find expansion witnesses onto a class")
    q.add_argument("--algebra", "--from", required=True, dest="algebra")
    q.add_argument("--target", "--to", required=True, dest="target")
    q.add_argument("--max-order", type=int, default=2)
    q.add_argument("--modes", default="subalgebra",
                   help="comma-separated: subalgebra, zero_reduce, resonant")
    q.add_argument("--pre-change",
                   help="JSON matrix applied to the source before searching")
    q.set_defaults(func=cmd_search)

    q = sub.add_parser("graph", help="connectivity matrix over class labels")
    q.add_argument("--labels", default="all3",
                   help="comma-separated labels, or all3 (default)")
    q.add_argument("--max-order", type=int, default=2)
    q.add_argument("--modes", default="subalgebra")
    q.add_argument("--dot", nargs="?", const="-", metavar="FILE",
                   help="emit DOT instead of JSON, to FILE or stdout")
    q.set_defaults(func=cmd_graph)

    q = sub.add_parser("catalog", help="list class names or print one tensor")
    q.add_argument("name", nargs="?", help="label such as sl2R or A3.4(a=1/2)")
    q.set_defaults(func=cmd_catalog)

    q = sub.add_parser("enumerate-semigroups",
                       help="Abelian semigroup tables of a given order")
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--labelled", action="store_true",
                   help="all tables, not one per isomorphism class")
    q.set_defaults(func=cmd_enumerate_semigroups)

    return p


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except InputFormatError as e:
        _emit({"error": e.payload()})
        return 1
    except LiexError as e:
        _emit({"error": e.payload()})
        return 2


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (liex ... | head).  What is still
        # buffered goes to devnull, so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
