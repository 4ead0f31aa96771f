"""Command-line front end.

Every subcommand emits a JSON report on stdout (timestamp kept in a separate
top-level field so the payload is reproducible byte-for-byte under a fixed
seed) and optionally a CSV table.  Exit codes: 0 success, 1 a claimed
inequality failed numerically, 2 bad configuration/domain, 3 resource budget
exceeded, 4 an internal invariant failed (a bug).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .arith_core import build_factor_table, chen_primes
from .circle_method import (
    ArcDissection,
    SieveContext,
    exp_sum,
    major_arc_model,
    minor_major_contrast,
)
from .errors import (
    ConfigError,
    DomainError,
    InvariantError,
    PaperAssertionError,
    ResourceBudgetError,
)
from .goldbach_verify import find_representations, range_survey
from .rosser_sieve import build_rosser, sandwich_check
from .selberg_sieve import build_selberg, quadratic_form
from .transference import ZN_POINT_BUDGET, pollard_check, run_transference


def _emit(args, command: str, config: dict, result: dict) -> None:
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": {
            "version": __version__,
            "command": command,
            "seed": getattr(args, "seed", None),
            "config": config,
            "result": result,
        },
    }
    json.dump(report, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from None


def cmd_chen(args) -> int:
    table = build_factor_table(args.bound + 2)
    ps = chen_primes(args.bound, variant=args.variant, z=args.z, table=table)
    if args.csv:
        _write_csv(args.csv, ["p", "omega_p_plus_2"],
                   zip(ps.tolist(), table.omega(ps + 2).tolist()))
    _emit(args, "chen", {"bound": args.bound, "variant": args.variant, "z": args.z},
          {"count": int(ps.size), "largest": int(ps[-1]) if ps.size else None})
    return 0


def cmd_rosser(args) -> int:
    w = build_rosser(args.D, args.sign)
    result = {"support_size": int(w.d.size), "sum_of_weights": int(w.value.sum())}
    ok = True
    if args.sandwich_limit:
        wp = w if args.sign == "+" else build_rosser(args.D, "+")
        wm = w if args.sign == "-" else build_rosser(args.D, "-")
        checked, bad = sandwich_check(wp, wm, args.sandwich_limit)
        result["sandwich_checked"] = checked
        result["sandwich_failures"] = bad[:10].tolist()
        ok = not bad.size
    if args.csv:
        order = np.argsort(w.d)
        _write_csv(args.csv, ["d", "weight"], zip(w.d[order].tolist(), w.value[order].tolist()))
    _emit(args, "rosser",
          {"D": args.D, "sign": args.sign, "sandwich_limit": args.sandwich_limit},
          result)
    return 0 if ok else 1


def cmd_arcs(args) -> int:
    dis = ArcDissection(args.n, args.B)
    num_rationals = len(dis.rationals)  # over budget: exit 3 before sampling
    rows = []
    rng = np.random.default_rng(args.seed)
    for _ in range(args.samples):
        alpha = float(rng.random())
        kind, a, q = dis.classify(alpha)
        rows.append({"alpha": alpha, "kind": kind, "a": a, "q": q})
    _emit(args, "arcs",
          {"n": args.n, "B": args.B, "samples": args.samples},
          {"Q": dis.Q, "radius": dis.radius, "num_rationals": num_rationals,
           "samples": rows})
    return 0


def cmd_ssum(args) -> int:
    ctx = SieveContext(n=args.n, W=args.W, b=args.b, k0=args.k0)
    alpha = _parse_rational(args.alpha)
    val = exp_sum(ctx, alpha, mode=args.mode)
    result = {"alpha": str(alpha), "mode": args.mode,
              "value": [val.real, val.imag], "abs": abs(val)}
    if args.major_arc and alpha.denominator > 1:
        cmp = major_arc_model(ctx, alpha.numerator % alpha.denominator,
                              alpha.denominator, float(alpha))
        result["major_arc_model"] = {
            "model": [cmp.model.real, cmp.model.imag],
            "actual": [cmp.actual.real, cmp.actual.imag],
            "rel_err": cmp.rel_err,
        }
    _emit(args, "ssum", {"n": args.n, "W": args.W, "b": args.b, "k0": args.k0}, result)
    return 0


def cmd_selberg(args) -> int:
    sys_ = build_selberg(args.stage, args.M, args.W, args.n, args.k0)
    qf = quadratic_form(sys_)
    if args.csv:
        _write_csv(args.csv, ["d", "lambda"],
                   [(d, float(v)) for d, v in sorted(sys_.lam.items())])
    ok = qf * sys_.G1 == 1
    _emit(args, "selberg",
          {"stage": args.stage, "M": args.M, "W": args.W, "n": args.n, "k0": args.k0},
          {"support_size": len(sys_.lam), "G1": float(sys_.G1),
           "quadratic_form": float(qf), "qf_equals_inv_G1": bool(ok),
           "skipped_primes": list(sys_.skipped_primes)})
    return 0 if ok else 1


def cmd_transfer(args) -> int:
    overrides = {}
    for item in args.override or []:
        k, _, v = item.partition("=")
        try:
            overrides[k] = float(v)
        except ValueError:
            raise ConfigError(f"override must be KEY=VALUE with a number, got {item!r}") from None
    report = run_transference(args.n, profile=args.profile, overrides=overrides)
    _emit(args, "transfer", {"n": args.n, "profile": args.profile,
                             "overrides": overrides}, report)
    return 0


def cmd_goldbach(args) -> int:
    if args.hi is None:
        reps = find_representations(args.n, variant=args.variant, z=args.z,
                                    limit=args.limit)
        if args.csv:
            _write_csv(args.csv, ["n", "p1", "p2", "p3", "k_of_p3"],
                       [(args.n, *row) for row in reps.tolist()])
        _emit(args, "goldbach", {"n": args.n, "variant": args.variant},
              {"count": len(reps), "first": reps[0, :3].tolist() if len(reps) else None})
        return 0 if len(reps) else 1
    survey = range_survey(args.n, args.hi, variant=args.variant, z=args.z)
    rows = survey.rows
    if args.csv:
        _write_csv(args.csv, ["n", "rep_count", "min_k", "has_all_chen"], rows.tolist())
    ks, counts = np.unique(rows.min_k, return_counts=True)
    i = np.argmin(rows.rep_count) if len(rows) else None
    _emit(args, "goldbach", {"lo": args.n, "hi": args.hi, "variant": args.variant},
          {"rows": len(rows), "failures": survey.failures, "all_ok": survey.all_ok,
           "min_k_counts": dict(zip(ks.tolist(), counts.tolist())),
           "fewest": None if i is None else {"n": int(rows.n[i]), "rep_count": int(rows.rep_count[i])}})
    return 0 if survey.all_ok else 1


def cmd_contrast(args) -> int:
    ctx = SieveContext(n=args.n, W=args.W, b=args.b)
    dis = ArcDissection(args.n, args.B)
    rng = np.random.default_rng(args.seed)
    rep = minor_major_contrast(ctx, dis, samples=args.samples, rng=rng)
    _emit(args, "contrast",
          {"n": args.n, "W": args.W, "b": args.b, "B": args.B,
           "samples": args.samples},
          {"Q": dis.Q, "median_minor": rep.median_minor, "median_major": rep.median_major,
           "max_minor": rep.max_minor, "ok": rep.ok})
    return 0 if rep.ok else 1


def cmd_pollard(args) -> int:
    rng = np.random.default_rng(args.seed)
    N = args.N
    if N < 1 or not all(0 < th <= 1 for th in args.densities):
        raise ConfigError(f"need N >= 1 and densities in (0, 1], got N={N}, {args.densities}")
    if N > ZN_POINT_BUDGET:  # before drawing the sets
        raise ResourceBudgetError(f"N={N} exceeds the budget of {ZN_POINT_BUDGET} points on Z_N")
    sizes = [max(1, int(round(th * N))) for th in args.densities]
    sets = [rng.choice(N, size=s, replace=False) for s in sizes]
    res = pollard_check(N, sets[0], sets[1], sets[2], args.target)
    _emit(args, "pollard",
          {"N": N, "densities": args.densities, "target": args.target},
          {"count": res.count, "theta": res.theta, "bound": res.bound,
           "ok": res.ok})
    return 0 if res.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chen3",
                                description="sieve and transference toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("chen", help="enumerate Chen primes")
    c.add_argument("--bound", type=int, required=True)
    c.add_argument("--variant", choices=("basic", "strict"), default="basic")
    c.add_argument("--z", type=float)
    c.add_argument("--csv")
    c.set_defaults(func=cmd_chen)

    r = sub.add_parser("rosser", help="combinatorial sieve weights")
    r.add_argument("--D", type=float, required=True)
    r.add_argument("--sign", choices=("+", "-"), default="+")
    r.add_argument("--sandwich-limit", type=int, default=0)
    r.add_argument("--csv")
    r.set_defaults(func=cmd_rosser)

    a = sub.add_parser("arcs", help="major/minor arc dissection")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--B", type=float, default=2.0)
    a.add_argument("--samples", type=int, default=20)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=cmd_arcs)

    s = sub.add_parser("ssum", help="sieve-weighted exponential sum")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--W", type=int, default=2)
    s.add_argument("--b", type=int, default=1)
    s.add_argument("--k0", type=int, default=8)
    s.add_argument("--alpha", required=True, help="rational a/q or decimal")
    s.add_argument("--mode", choices=("moebius", "rosser_plus", "rosser_minus"),
                   default="moebius")
    s.add_argument("--major-arc", action="store_true")
    s.set_defaults(func=cmd_ssum)

    se = sub.add_parser("selberg", help="two-stage Selberg weights")
    se.add_argument("--stage", type=int, choices=(1, 2), required=True)
    se.add_argument("--M", type=int, required=True)
    se.add_argument("--W", type=int, required=True)
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--k0", type=int, default=8)
    se.add_argument("--csv")
    se.set_defaults(func=cmd_selberg)

    t = sub.add_parser("transfer", help="full transference pipeline")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--profile", choices=("desk", "paper"), default="desk")
    t.add_argument("--override", action="append", metavar="KEY=VALUE")
    t.set_defaults(func=cmd_transfer)

    g = sub.add_parser("goldbach", help="ground-truth representations")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--hi", type=int, help="survey [n, hi] instead of a single n")
    g.add_argument("--variant", choices=("basic", "strict"), default="basic")
    g.add_argument("--z", type=float)
    g.add_argument("--limit", type=int)
    g.add_argument("--csv")
    g.set_defaults(func=cmd_goldbach)

    ct = sub.add_parser("contrast", help="minor vs major arc magnitudes")
    ct.add_argument("--n", type=int, required=True)
    ct.add_argument("--W", type=int, default=2)
    ct.add_argument("--b", type=int, default=1)
    ct.add_argument("--B", type=float, default=2.0)
    ct.add_argument("--samples", type=int, default=50)
    ct.add_argument("--seed", type=int, default=0)
    ct.set_defaults(func=cmd_contrast)

    po = sub.add_parser("pollard", help="sumset lower bound on random sets")
    po.add_argument("--N", type=int, required=True)
    po.add_argument("--densities", type=float, nargs=3, required=True)
    po.add_argument("--target", type=int, default=0)
    po.add_argument("--seed", type=int, default=0)
    po.set_defaults(func=cmd_pollard)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except PaperAssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
