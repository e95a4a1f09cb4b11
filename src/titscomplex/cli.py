"""Command-line front end.

Subcommands: rank, grass, flags, complex, homology, apartments, orbits,
verify; `COMMANDS` is the one list of them, and `main` builds the parser
of the invoked command only.  All outputs are byte-stable given the same
arguments; budgets are counted in enumerated objects, never wall time, so
behaviour is machine independent.
"""

from __future__ import annotations

import argparse
import json
import sys

from .rings import BudgetExceeded, DEFAULT_BUDGET, check_budget, log10_bound, parse_ring_spec
from .grassmann import (
    SummandCatalog,
    budgeted_flag_count,
    enumerate_good_flags,
    flag_type,
    grassmannian_size_formula,
)
from .complexes import build_filtration, build_tits_complex
from .homology import reduced_homology
from .steinberg import apartment_span_rank, p1_orbit_count, table_generate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_BUDGET = 3


def _parse_specs(text: str):
    return [parse_ring_spec(part) for part in text.split(",") if part.strip()]


def _emit(args, text: str):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write --output {args.output}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def cmd_rank(args) -> int:
    specs = _parse_specs(args.rings)
    table = table_generate(specs, args.n_max)
    if args.format == "csv":
        _emit(args, table.to_csv())
    elif args.format == "json":
        _emit(args, _json_text(table.to_json_dict()))
    else:
        _emit(args, table.to_text())
    return EXIT_OK


def cmd_grass(args) -> int:
    if args.list and not args.enumerate:
        raise ValueError("grass --list needs --enumerate (the bases come from the enumeration)")
    spec = parse_ring_spec(args.ring)
    n = args.n
    if n < 0:
        raise ValueError("n must be >= 0")
    # Before any formula, the digits it prints are budgeted: [n,k]_q <
    # 3.47 q^(k(n-k)) for q >= 2, so |Gr_k^n(R)| < 4^f |R|^(k(n-k)) with f
    # residue fields, and row k has at most k(n-k) log10|R| + 0.61f + 1
    # digits; over every k, sum k(n-k) = (n^3 - n)/6.
    count = 1 if args.k is not None else n + 1
    exponent = args.k * (n - args.k) if args.k is not None else (n**3 - n) // 6
    f = len(spec.residue_field_orders)
    digits = log10_bound([spec.cardinality], exponent) - (-count * (61 * f + 100) // 100)
    check_budget(digits, DEFAULT_BUDGET, f"digits of the Grassmannian counts of {spec.label}^{n}")
    ks = [args.k] if args.k is not None else list(range(0, n + 1))
    catalog = SummandCatalog(spec, n, args.budget)
    rows = []
    for k in ks:
        row = {"k": k, "formula": grassmannian_size_formula(spec, n, k)}
        if args.enumerate:
            summands = catalog.grassmannian(k)
            row["enumerated"] = len(summands)
            row["match"] = row["enumerated"] == row["formula"]
            if args.list:
                row["bases"] = [s.payload_basis() for s in summands]
        rows.append(row)
    doc = {"schema_version": 1, "ring": spec.label, "n": n, "grassmannians": rows}
    if args.format == "json":
        _emit(args, _json_text(doc))
    elif args.format == "csv":
        lines = ["k,formula" + (",enumerated,match" if args.enumerate else "")]
        for r in rows:
            line = f"{r['k']},{r['formula']}"
            if args.enumerate:
                line += f",{r['enumerated']},{str(r['match']).lower()}"
            lines.append(line)
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"Gr_k^{n}({spec.label})"]
        for r in rows:
            line = f"  k={r['k']}: {r['formula']}"
            if args.enumerate:
                line += f"  (enumerated {r['enumerated']}, {'ok' if r['match'] else 'MISMATCH'})"
            lines.append(line)
        _emit(args, "\n".join(lines) + "\n")
    if args.enumerate and any(not r["match"] for r in rows):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_flags(args) -> int:
    spec = parse_ring_spec(args.ring)
    try:
        parts = [int(x) for x in args.type.split(",")]
    except ValueError:
        raise ValueError(f"--type must be comma-separated integers, got {args.type!r}") from None
    lam = flag_type(parts, args.n)
    doc = {"schema_version": 1, "ring": spec.label, "n": args.n, "type": list(lam)}
    if args.list:
        flags = enumerate_good_flags(spec, args.n, lam, args.budget)
        doc["count"] = len(flags)
        doc["flags"] = [[s.payload_basis() for s in f] for f in flags]
    else:
        # the closed count, which the tests hold equal to the enumeration's,
        # after the same budget checks, so every input exits as it did
        doc["count"] = budgeted_flag_count(spec, args.n, lam, args.budget)
    count = doc["count"]
    if args.format == "json":
        _emit(args, _json_text(doc))
    elif args.format == "csv":
        _emit(args, "ring,n,type,count\n" + f"{spec.label},{args.n},{'|'.join(map(str, lam))},{count}\n")
    else:
        _emit(args, f"good flags of type {lam} in {spec.label}^{args.n}: {count}\n")
    return EXIT_OK


def _build(args):
    spec = parse_ring_spec(args.ring)
    if getattr(args, "filtration", None) is not None:
        return build_filtration(spec, args.n, args.filtration, args.budget)
    return build_tits_complex(spec, args.n, args.budget)


def cmd_complex(args) -> int:
    # text and json are the same document
    _emit(args, _json_text(_build(args).export_document()))
    return EXIT_OK


def cmd_homology(args) -> int:
    cx = _build(args)
    hom = reduced_homology(cx)
    doc = hom.to_json_dict()
    doc["ring"] = cx.ring.spec.label
    doc["n"] = cx.n
    doc["max_rank"] = cx.max_rank
    if args.format == "json":
        _emit(args, _json_text(doc))
    elif args.format == "csv":
        lines = ["degree,betti,torsion"]
        for d in range(len(hom.betti)):
            tors = "|".join(str(t) for t in hom.torsion[d])
            lines.append(f"{d},{hom.betti[d]},{tors}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        name = f"T_({cx.n},{cx.max_rank})" if cx.max_rank < cx.n - 1 else f"T_{cx.n}"
        lines = [f"{name}({cx.ring.spec.label}): f-vector {hom.f_vector}"]
        for d in range(len(hom.betti)):
            tors = hom.torsion[d] or "none"
            lines.append(f"  degree {d}: betti {hom.betti[d]}, torsion {tors}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_apartments(args) -> int:
    if args.n < 2:
        raise ValueError(f"apartments need n >= 2, got n={args.n}")
    cx = _build(args)
    res = apartment_span_rank(cx, mode=args.mode, seed=args.seed, budget=args.budget)
    doc = {
        "schema_version": 1,
        "ring": cx.ring.spec.label,
        "n": cx.n,
        "span_rank": res.rank,
        "mode": res.mode,
        "saturated": res.saturated,
        "apartments_used": res.apartments_used,
        "top_betti": res.top_betti,
        "match": res.rank == res.top_betti and res.saturated,
    }
    if args.format == "json":
        _emit(args, _json_text(doc))
    else:
        _emit(
            args,
            f"apartment span rank {res.rank} ({res.mode}, "
            f"{'saturated' if res.saturated else 'LOWER BOUND'}, {res.apartments_used} apartments); "
            f"top betti {res.top_betti}; match: {doc['match']}\n",
        )
    return EXIT_OK if doc["match"] else EXIT_CHECK_FAILED


def cmd_orbits(args) -> int:
    spec = parse_ring_spec(args.ring)
    orbits = p1_orbit_count(spec, args.budget)
    # GL_2(R) is transitive on the lines X and Q[X] = Q + St_2(R) (x) Q, so
    # <St_2, St_2> = dim End_G(Q[X]) - 1 = orbits on X x X, minus 1
    doc = {
        "schema_version": 2,
        "ring": spec.label,
        "orbits": orbits,
        "st_self_intertwining": orbits - 1,
    }
    text = f"line pairs over {spec.label}: {orbits} orbits, <St_2, St_2> = {orbits - 1}"
    # the paper's value for a chain ring of length k is k; it makes no claim otherwise
    k = spec.chain_length
    if k is not None:
        doc["match"] = orbits - 1 == k
        text += f", chain length {k}, match: {doc['match']}"
    _emit(args, _json_text(doc) if args.format == "json" else text + "\n")
    return EXIT_OK if doc.get("match", True) else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    from .verify import run_verify

    only = None if args.only is None else [x for x in args.only.split(",") if x]
    report = run_verify(args.tier, args.budget, only=only)
    if args.format == "json":
        _emit(args, _json_text(report))
    else:
        lines = []
        for c in report["checks"]:
            lines.append(f"{c['status'].upper():5} {c['id']}: {c['detail']}")
        lines.append(
            f"{report['passed']} passed, {report['failed']} failed, {report['skipped']} skipped"
        )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _common(p, fmt=("text", "json", "csv"), budget=True):
    if budget:
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="enumeration budget in objects")
    p.add_argument("--format", choices=fmt, default="text")
    p.add_argument("--output", help="write to this path instead of stdout")


def _ring_n(p):
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)


def _args_rank(p):
    p.add_argument("--rings", required=True, help="comma-separated ring specs, e.g. Z/4,Z/6,F2[e]^2")
    p.add_argument("--n-max", type=int, required=True)
    _common(p, budget=False)  # closed formulas only: nothing is enumerated


def _args_grass(p):
    _ring_n(p)
    p.add_argument("--k", type=int)
    p.add_argument("--enumerate", action="store_true", help="also enumerate and cross-check")
    p.add_argument("--list", action="store_true", help="include preferred bases (with --enumerate)")
    _common(p)


def _args_flags(p):
    _ring_n(p)
    p.add_argument("--type", required=True, help="composition of n, e.g. 1,1,2")
    p.add_argument("--list", action="store_true")
    _common(p)


def _args_complex(p):
    _ring_n(p)
    p.add_argument("--filtration", type=int, help="restrict vertices to rank <= m")
    _common(p, fmt=("text", "json"))


def _args_homology(p):
    _ring_n(p)
    p.add_argument("--filtration", type=int)
    _common(p)


def _args_apartments(p):
    _ring_n(p)
    p.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    p.add_argument("--seed", type=int, default=0)
    _common(p, fmt=("text", "json"))


def _args_orbits(p):
    p.add_argument("--ring", required=True)
    _common(p, fmt=("text", "json"))


def _args_verify(p):
    p.add_argument("--tier", choices=("fast", "full"), default="fast")
    p.add_argument("--only", help="comma-separated check ids to run")
    _common(p, fmt=("text", "json"))


# the one list of commands: name -> (help, handler, adder of its arguments)
COMMANDS = {
    "rank": ("Steinberg rank table via the Grassmannian recursion", cmd_rank, _args_rank),
    "grass": ("Grassmannian counts (formula, optionally enumerated)", cmd_grass, _args_grass),
    "flags": ("count good flags of a given type", cmd_flags, _args_flags),
    "complex": ("build and export the complex", cmd_complex, _args_complex),
    "homology": ("exact reduced homology (Betti numbers and torsion)", cmd_homology, _args_homology),
    "apartments": ("rank of the apartment-class span vs top homology", cmd_apartments, _args_apartments),
    "orbits": ("orbits on pairs of lines and <St_2, St_2> (n = 2)", cmd_orbits, _args_orbits),
    "verify": ("run the verification suite", cmd_verify, _args_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.

    A subparser's prog, usage, help and errors do not depend on its
    siblings.  The top-level usage (printed on unrecognized arguments)
    lists every command either way: with one command, the metavar spells
    out the list that argparse derives from the full choices.
    """
    parser = argparse.ArgumentParser(
        prog="titscomplex",
        description="Flag complexes of finite commutative rings: enumeration, homology, Steinberg ranks.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, fn, add_arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # only the invoked command's parser; the full one for help and errors
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    # exact integers print in full at any length (the rank of St_170(F2) has
    # 4325 digits): the int-to-str digit limit of Python 3.10.7 and later is
    # lifted while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if getattr(args, "budget", 0) < 0:
            raise ValueError(f"budget must be >= 0, got {args.budget}")
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
