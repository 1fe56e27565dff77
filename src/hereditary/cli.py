"""Batch front-end: machine-readable JSON reports over every module.

Exit codes: 0 success, 2 invalid input, 3 budget exhausted, 4 verification
failure. Reports are deterministic for a fixed config (timing aside).
"""

import argparse
import csv
import sys
import time
from fractions import Fraction

from . import __version__
from . import containers as containers_mod
from . import distances, extremal, jsonio, properties, qftypes, templates
from .errors import BudgetExceeded, InvalidArgument
from .instances import colored, digraphs, metric, triples

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


class VerificationFailure(Exception):
    pass


def _frac(x):
    """Exact string + float rendering for report fields."""
    f = Fraction(x)
    return {"exact": "%d/%d" % (f.numerator, f.denominator), "float": float(f)}


def _load_property(args):
    if getattr(args, "property", None):
        data = jsonio.load_path(args.property)
        if isinstance(data, dict) and "signature" not in data and "report" in data:
            data = data["report"]
        return jsonio.property_from_json(data)
    if getattr(args, "instance", None):
        return _instance_property(args)
    raise InvalidArgument("need --property or --instance")


def _digraph_k(args):
    for attr in ("instance_k_flag", "instance_k", "k"):
        value = getattr(args, attr, None)
        if value is not None:
            return value
    return None


def _instance_property(args):
    name = args.instance
    if name == "metric":
        if args.r is None:
            raise InvalidArgument("instance metric needs --r")
        return metric.metric_instance(args.r)
    if name == "digraph":
        k = _digraph_k(args)
        if k is None:
            raise InvalidArgument("instance digraph needs --k")
        return digraphs.digraph_instance(k)
    if name == "triples":
        return triples.triples_instance()
    if name == "colored":
        if not args.spec:
            raise InvalidArgument("instance colored needs --spec")
        spec = jsonio.load_path(args.spec)
        forbidden = [(entry["m"], {tuple(map(int, key.strip("[]").split(","))): c
                                   for key, c in entry["coloring"].items()})
                     for entry in spec.get("forbidden", [])]
        return colored.colored_instance(spec["k"], spec["colors"], forbidden)
    raise InvalidArgument("unknown instance %r" % name)


def _template_report(rep):
    return {"n": rep.n, "ex": rep.ex, "b_n": rep.b_n,
            "b_n_exact_pair": list(rep.exact_pair()),
            "maximizer_count": len(rep.extremal_templates),
            "exact": rep.exact, "truncated": rep.truncated,
            "stats": rep.stats}


def cmd_types(args):
    if args.property or args.instance:
        H = _load_property(args)
        listing = jsonio.type_listing(properties.realized_type_space(H))
        return {"realized": True, "count": len(listing), "types": listing}
    if not args.signature:
        raise InvalidArgument("need --signature, --property or --instance")
    sig = jsonio.signature_from_json(jsonio.load_path(args.signature))
    listing = jsonio.type_listing(qftypes.type_space(sig))
    return {"realized": False, "count": len(listing), "types": listing}


def cmd_enumerate(args):
    H = _load_property(args)
    budget = args.budget or properties.DEFAULT_ENUM_BUDGET
    if args.count_only:
        return {"n": args.n, "count": properties.count_members(H, args.n, budget)}
    members = [jsonio.structure_to_json(M)
               for M in properties.enumerate_members(H, args.n, budget)]
    return {"n": args.n, "count": len(members), "members": members}


def cmd_extremal(args):
    H = _load_property(args)
    rep = extremal.search_extremal(H, args.n,
                                   node_budget=args.budget or extremal.DEFAULT_NODE_BUDGET)
    out = _template_report(rep)
    if args.all_maximizers:
        out["maximizers"] = [jsonio.template_to_json(T, inline_property=False)
                             for T in rep.extremal_templates]
    if not rep.exact:
        raise BudgetExceeded("extremal search incomplete", partial=out)
    return out


def cmd_density(args):
    H = _load_property(args)
    reps = extremal.density_sequence(
        H, args.nmax, node_budget=args.budget or extremal.DEFAULT_NODE_BUDGET)
    rows = [_template_report(rep) for rep in reps]
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["n", "ex", "b_n"])
                for rep in reps:
                    writer.writerow([rep.n, rep.ex, rep.b_n])
        except OSError as exc:
            raise InvalidArgument("cannot write %s: %s"
                                  % (args.csv, exc.strerror or exc))
    return {"sequence": rows, "non_increasing": True}


def cmd_subcount(args):
    T = jsonio.template_from_json(jsonio.load_path(args.template))
    value, error_free = templates.sub_count(T)
    return {"sub": value, "choice_count": templates.choice_count(T),
            "error_free": error_free}


def cmd_hrandom(args):
    T = jsonio.template_from_json(jsonio.load_path(args.template))
    ok, diagnostic = templates.validate_template(T)
    result = {"flaw_free": ok}
    if not ok:
        result["diagnostic"] = list(map(str, diagnostic))
        result["h_random"] = False
        return result
    result["error_free"] = templates.is_error_free(T)
    result["h_random"] = templates.is_h_random(T)
    return result


def cmd_distance(args):
    M = jsonio.structure_from_json(jsonio.load_path(args.a))
    N = jsonio.structure_from_json(jsonio.load_path(args.b))
    out = {"dist": _frac(distances.dist(M, N))}
    if args.ac or args.check_bound:
        out["d"] = _frac(distances.ac_distance(M, N))
    if args.check_bound:
        rep = distances.distance_bound_check(M, N)
        out["bound_lhs"] = _frac(rep["dist"])
        out["bound_rhs"] = _frac(rep["bound_rhs"])
        out["bound_holds"] = rep["holds"]
    return out


def cmd_containers(args):
    H = _load_property(args)
    Hg = containers_mod.build_hypergraph(H, args.k, args.n)
    m = containers_mod.exponent_m(args.k, H.signature.r)
    if args.tau == "auto":
        tau = Fraction(containers_mod.suggested_tau(
            args.n, args.k, H.signature.r, args.gamma)).limit_denominator(10 ** 6)
        if not 0 < tau < Fraction(1, 2):
            tau = Fraction(1, 4)
    else:
        tau = Fraction(args.tau)
    rep = containers_mod.codegree_function(Hg, tau, epsilon=args.epsilon)
    return {"v": Hg.num_vertices(), "e": Hg.num_edges(), "alpha": Hg.alpha,
            "s": Hg.s, "m": _frac(m), "tau": _frac(tau),
            "d": _frac(rep.d),
            "delta_j": {str(j): _frac(val) for j, val in rep.delta_j.items()},
            "delta": _frac(rep.delta),
            "threshold": None if rep.threshold is None else _frac(rep.threshold),
            "threshold_met": rep.threshold_met}


def cmd_probe_stability(args):
    H = _load_property(args)
    probe = extremal.stability_probe(
        H, args.n, Fraction(args.epsilon),
        node_budget=args.budget or extremal.DEFAULT_NODE_BUDGET)
    return {"n": probe.n, "epsilon": _frac(probe.epsilon),
            "near_extremal_count": len(probe.near_extremal),
            "worst_gap": _frac(probe.worst_gap)}


def _oracle(args, n):
    if args.instance == "metric":
        value, family = metric.metric_extremal_oracle(args.r, n)
        return value
    if args.instance == "digraph":
        return digraphs.digraph_extremal_oracle(_digraph_k(args), n)[0]
    if args.instance == "triples":
        return triples.triples_extremal_oracle(n)[0]
    raise InvalidArgument("verify supports metric, digraph and triples")


def cmd_verify(args):
    H = _load_property(args)
    r = H.signature.r
    table = {}
    all_ok = True
    for n in range(r, args.nmax + 1):
        try:
            expected = _oracle(args, n)
        except InvalidArgument:
            continue  # n below the closed form's range
        rep = extremal.search_extremal(
            H, n, node_budget=args.budget or extremal.DEFAULT_NODE_BUDGET)
        ok = rep.exact and rep.ex == expected
        all_ok = all_ok and ok
        table[str(n)] = {"search": rep.ex, "oracle": expected, "match": ok}
    result = {"instance": args.instance, "ex_table": table, "all_match": all_ok}
    if not all_ok:
        raise VerificationFailure(jsonio.dumps(result))
    return result


def cmd_instance(args):
    H = _instance_property(args)
    return jsonio.property_to_json(H)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hereditary",
        description="Extremal counting toolkit for hereditary properties "
                    "of relational structures.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, budget=True, k_flag="--k"):
        p.add_argument("--output", "-o", help="write the JSON report here")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="search-node budget override")
        if instance:
            p.add_argument("--property", help="property JSON file")
            p.add_argument("--instance",
                           choices=["metric", "digraph", "triples", "colored"])
            p.add_argument("--r", type=int, help="metric distance range")
            if k_flag:
                p.add_argument(k_flag, type=int, dest="instance_k",
                               help="digraph tournament bound")
            p.add_argument("--spec", help="colored instance spec JSON")

    p = sub.add_parser("types", help="list the (realized) type space")
    p.add_argument("--signature", help="signature JSON file")
    common(p)
    p.set_defaults(func=cmd_types)

    p = sub.add_parser("enumerate", help="enumerate labeled members H_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("extremal", help="maximize sub over H-random templates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all-maximizers", action="store_true")
    common(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("density", help="density sequence b_n up to nmax")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--csv", help="also write a (n, ex, b_n) CSV here")
    common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("subcount", help="sub and choice counts of a template")
    p.add_argument("--template", required=True)
    common(p, instance=False)
    p.set_defaults(func=cmd_subcount)

    p = sub.add_parser("hrandom", help="flaw/error/H-randomness checks")
    p.add_argument("--template", required=True)
    common(p, instance=False)
    p.set_defaults(func=cmd_hrandom)

    p = sub.add_parser("distance", help="structure distances")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--ac", action="store_true",
                   help="include the collapsed-relation distance d")
    p.add_argument("--check-bound", action="store_true")
    common(p, instance=False, budget=False)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("containers", help="containers hypergraph report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True,
                   help="container block size")
    p.add_argument("--instance-k", type=int, dest="instance_k_flag",
                   help="digraph tournament bound when using --instance")
    p.add_argument("--tau", default="auto")
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=None)
    common(p, k_flag=None)
    p.set_defaults(func=cmd_containers)

    p = sub.add_parser("probe-stability", help="near-extremal stability probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    common(p)
    p.set_defaults(func=cmd_probe_stability)

    p = sub.add_parser("verify", help="oracle-vs-search comparison")
    p.add_argument("--nmax", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("instance", help="emit a built-in property JSON")
    p.add_argument("instance", choices=["metric", "digraph", "triples", "colored"])
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--spec")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_instance)

    return parser


def _config_echo(args):
    skip = {"func", "output"}
    return {key: value for key, value in sorted(vars(args).items())
            if key not in skip and value is not None}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    started = time.time()
    status = EXIT_OK
    try:
        body = args.func(args)
    except InvalidArgument as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        body = {"error": "budget exhausted", "detail": str(exc),
                "partial": getattr(exc, "partial", None) is not None}
        status = EXIT_BUDGET
    except VerificationFailure as exc:
        print(str(exc))
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    if args.command == "instance":
        # raw property JSON, directly consumable by the other commands
        report = body
    else:
        report = {"version": __version__, "command": args.command,
                  "config": _config_echo(args), "report": body,
                  "timing_seconds": round(time.time() - started, 3)}
    text = jsonio.dumps(report)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print("invalid input: cannot write %s: %s"
                  % (args.output, exc.strerror or exc), file=sys.stderr)
            return EXIT_INVALID
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
