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


def _parse_fraction(text, option):
    """An exact rational from a command-line value such as 1/10 or 0.05."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument(
            "%s must be a fraction, got %r" % (option, text)) from None


def _budget(args, default):
    """The --budget value, or `default` when it is not given."""
    if args.budget is None:
        return default
    if args.budget < 1:
        raise InvalidArgument("--budget must be at least 1, got %d"
                              % args.budget)
    return args.budget


def _load_property(args):
    if args.property and args.instance:
        raise InvalidArgument("give --property or --instance, not both")
    if args.property:
        _check_instance_flags(args)
        return jsonio.property_from_json(jsonio.load_path(args.property))
    if args.instance:
        return _instance_property(args)
    raise InvalidArgument("need --property or --instance")


def _check_instance_flags(args):
    """Refuse an instance flag that the chosen input does not read."""
    k_flag = "--instance-k" if args.command == "containers" else "--k"
    for dest, flag, owner in (("r", "--r", "metric"),
                              ("instance_k", k_flag, "digraph"),
                              ("spec", "--spec", "colored")):
        if getattr(args, dest) is not None and args.instance != owner:
            raise InvalidArgument("%s is read only with --instance %s"
                                  % (flag, owner))


def _instance_property(args):
    _check_instance_flags(args)
    name = args.instance
    if name == "metric":
        if args.r is None:
            raise InvalidArgument("instance metric needs --r")
        return metric.metric_instance(args.r)
    if name == "digraph":
        if args.instance_k is None:
            raise InvalidArgument("instance digraph needs its tournament "
                                  "bound (--k; --instance-k in containers)")
        return digraphs.digraph_instance(args.instance_k)
    if name == "triples":
        return triples.triples_instance()
    if name == "colored":
        if not args.spec:
            raise InvalidArgument("instance colored needs --spec")
        return colored.colored_instance(*jsonio.colored_spec_from_json(
            jsonio.load_path(args.spec)))
    raise InvalidArgument("unknown instance %r" % name)


def _template_report(rep):
    return {"n": rep.n, "ex": rep.ex, "b_n": rep.b_n,
            "b_n_exact_pair": list(rep.exact_pair()),
            "maximizer_count": len(rep.extremal_templates),
            "exact": rep.exact, "truncated": rep.truncated,
            "stats": rep.stats}


def cmd_types(args):
    if args.property or args.instance:
        if args.signature:
            raise InvalidArgument("--signature is read only without "
                                  "--property and --instance")
        H = _load_property(args)
        listing = jsonio.type_listing(properties.realized_type_space(H))
        return {"realized": True, "count": len(listing), "types": listing}
    if not args.signature:
        raise InvalidArgument("need --signature, --property or --instance")
    _check_instance_flags(args)
    sig = jsonio.signature_from_json(jsonio.load_path(args.signature))
    listing = jsonio.type_listing(qftypes.type_space(sig))
    return {"realized": False, "count": len(listing), "types": listing}


def cmd_enumerate(args):
    budget = _budget(args, properties.DEFAULT_ENUM_BUDGET)
    H = _load_property(args)
    if args.count_only:
        return {"n": args.n, "count": properties.count_members(H, args.n, budget)}
    members = [jsonio.structure_to_json(M)
               for M in properties.enumerate_members(H, args.n, budget)]
    return {"n": args.n, "count": len(members), "members": members}


def cmd_extremal(args):
    budget = _budget(args, extremal.DEFAULT_NODE_BUDGET)
    H = _load_property(args)
    rep = extremal.search_extremal(H, args.n, node_budget=budget)
    out = _template_report(rep)
    if args.all_maximizers:
        out["maximizers"] = [jsonio.template_to_json(T, inline_property=False)
                             for T in rep.extremal_templates]
    if not rep.exact:
        raise BudgetExceeded("extremal search incomplete", partial=out)
    return out


def cmd_density(args):
    budget = _budget(args, extremal.DEFAULT_NODE_BUDGET)
    H = _load_property(args)
    try:
        reps = extremal.density_sequence(H, args.nmax, node_budget=budget)
    except BudgetExceeded as exc:
        if exc.partial is not None:
            exc.partial = {"sequence": list(map(_template_report, exc.partial))}
        raise
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
    if args.gamma is not None and args.tau != "auto":
        raise InvalidArgument("--gamma is read only with --tau auto")
    H = _load_property(args)
    r = H.signature.r
    if args.k <= r:
        raise InvalidArgument("containers --k must exceed r = %d, got %d"
                              % (r, args.k))
    if args.tau == "auto":
        gamma = 0.05 if args.gamma is None else args.gamma
        tau = Fraction(containers_mod.suggested_tau(
            args.n, args.k, r, gamma)).limit_denominator(10 ** 6)
        if not 0 < tau < Fraction(1, 2):
            raise InvalidArgument("--tau auto gives tau = %.4g, outside "
                                  "(0, 1/2)" % tau)
    else:
        tau = _parse_fraction(args.tau, "--tau")
    Hg = containers_mod.build_hypergraph(H, args.k, args.n)
    m = containers_mod.exponent_m(args.k, r)
    epsilon = (None if args.epsilon is None
               else _parse_fraction(args.epsilon, "--epsilon"))
    rep = containers_mod.codegree_function(Hg, tau, epsilon=epsilon)
    return {"v": Hg.num_vertices(), "e": Hg.num_edges(), "alpha": Hg.alpha,
            "s": Hg.s, "m": _frac(m), "tau": _frac(tau),
            "d": _frac(rep.d),
            "delta_j": {str(j): _frac(val) for j, val in rep.delta_j.items()},
            "delta": _frac(rep.delta),
            "threshold": None if rep.threshold is None else _frac(rep.threshold),
            "threshold_met": rep.threshold_met}


def cmd_probe_stability(args):
    budget = _budget(args, extremal.DEFAULT_NODE_BUDGET)
    H = _load_property(args)
    probe = extremal.stability_probe(
        H, args.n, _parse_fraction(args.epsilon, "--epsilon"),
        node_budget=budget)
    return {"n": probe.n, "epsilon": _frac(probe.epsilon),
            "near_extremal_count": len(probe.near_extremal),
            "truncated": probe.truncated,
            "worst_gap": _frac(probe.worst_gap),
            "stats": probe.stats}


def _oracle(args, n):
    if args.instance == "metric":
        value, family = metric.metric_extremal_oracle(args.r, n)
        return value
    if args.instance == "digraph":
        return digraphs.digraph_extremal_oracle(args.instance_k, n)[0]
    return triples.triples_extremal_oracle(n)[0]


def cmd_verify(args):
    if args.instance not in ("metric", "digraph", "triples"):
        raise InvalidArgument("verify supports --instance metric, digraph "
                              "and triples")
    budget = _budget(args, extremal.DEFAULT_NODE_BUDGET)
    H = _load_property(args)
    r = H.signature.r
    table = {}
    all_ok = True
    for n in range(r, args.nmax + 1):
        try:
            expected = _oracle(args, n)
        except InvalidArgument:
            continue  # n below the closed form's range
        rep = extremal.search_extremal(H, n, node_budget=budget)
        ok = rep.exact and rep.ex == expected
        all_ok = all_ok and ok
        table[str(n)] = {"search": rep.ex, "oracle": expected, "match": ok}
    if not table:
        raise InvalidArgument("no n in %d..%d has a closed form to verify"
                              % (r, args.nmax))
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

    def common(p, instance=True, budget=False, k_flag="--k"):
        p.add_argument("--output", "-o", help="write the JSON report here")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="search-node budget override")
        if instance:
            p.add_argument("--property", help="property JSON file")
            p.add_argument("--instance",
                           choices=["metric", "digraph", "triples", "colored"])
            p.add_argument("--r", type=int, help="metric distance range")
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
    common(p, budget=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("extremal", help="maximize sub over H-random templates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all-maximizers", action="store_true")
    common(p, budget=True)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("density", help="density sequence b_n up to nmax")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--csv", help="also write a (n, ex, b_n) CSV here")
    common(p, budget=True)
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
    common(p, instance=False)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("containers", help="containers hypergraph report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True,
                   help="container block size")
    p.add_argument("--tau", default="1/4",
                   help="a fraction, or auto for n^(-1/m) / gamma")
    p.add_argument("--gamma", type=float, default=None,
                   help="with --tau auto only (default 0.05)")
    p.add_argument("--epsilon", default=None)
    common(p, k_flag="--instance-k")
    p.set_defaults(func=cmd_containers)

    p = sub.add_parser("probe-stability", help="near-extremal stability probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_probe_stability)

    p = sub.add_parser("verify", help="oracle-vs-search comparison")
    p.add_argument("--nmax", type=int, required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("instance", help="emit a built-in property JSON")
    p.add_argument("instance", choices=["metric", "digraph", "triples", "colored"])
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int, dest="instance_k")
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
                "partial": exc.partial}
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
