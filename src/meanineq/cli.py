"""Command-line front end.

Subcommands: means-eval, ineq-list, ineq-check, sweep, kyfan-check,
kyfan-sweep, oracle-compare.  JSON goes to stdout (floats round-trip), the
human summary to stderr.  Exit codes: 0 all checks hold, 1 a mathematical
violation was detected, 2 usage or hypothesis error, 3 the run failed (a
sweep's worker process died).  The only state a command mutates is its
--out/--csv file, and while a sweep runs, a temporary directory of CSV parts
beside the --csv file.

Import loads means, ratio and report; each command adds what it runs: ineq-check
catalog, kyfan-check and ineq-list catalog and kyfan, oracle-compare oracle and
decimal, the sweeps catalog, kyfan, rng, hashlib and sweep.  Start-up without a
bytecode cache is mostly compile time: ``import meanineq.cli`` takes 23 ms past
the interpreter's 68 ms, 48 ms when it loaded every module (2-core Xeon, 3.11).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import means
from .report import EQUALITY, HOLDS, VIOLATED, HypothesisViolation, dumps

_WORKERS_HELP = "worker processes (default 1); small sweeps run in-process"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_FAILED = 3


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


#: The flags that take a float, in any subcommand.
_FLOAT_FLAGS = frozenset(["--a", "--b", "--c", "--d", "--p", "--q", "--x", "--y",
                          "--range-lo", "--range-hi"])


def _join_negative_floats(argv):
    """``--p -1e-5`` as ``--p=-1e-5``.

    argparse reads a token that starts with "-" as a flag unless it is a plain
    decimal such as -1.5, so a negative float in exponent notation would
    leave its flag without a value.  Joined to its flag, the value parses as
    any other; a token that is not a float, such as a real flag, stays apart.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _FLOAT_FLAGS and tok.startswith("-") and _is_float(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _emit(obj):
    sys.stdout.write(dumps(obj) + "\n")


def _note(msg):
    sys.stderr.write(msg + "\n")


def _cmd_means_eval(args):
    if args.mean == "Lp" and args.p is None:
        raise CliError("--p is required when --mean Lp")
    if args.mean != "Lp" and args.p is not None:
        raise CliError("--p is only valid with --mean Lp")
    try:
        value = means.evaluate_mean(args.mean, args.a, args.b, p=args.p)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = {"mean_id": args.mean, "a": args.a, "b": args.b, "value": value}
    if args.p is not None:
        out["p"] = args.p
    _emit(out)
    return EXIT_OK


def _cmd_ineq_list(args):
    from . import catalog, kyfan
    entries = []
    for id in catalog.INEQUALITY_IDS:
        e = catalog.REGISTRY[id]
        entries.append({"id": e.id, "arity": e.arity, "links": len(e.links),
                        "relaxed_quad": e.relaxed_quad,
                        "description": e.description})
    _emit({"inequalities": entries, "kyfan_ids": list(kyfan.KYFAN_IDS)})
    return EXIT_OK


def _report_exit(verdict):
    if verdict in (HOLDS, EQUALITY):
        return EXIT_OK
    return EXIT_VIOLATION


def _cmd_ineq_check(args):
    from . import catalog
    inputs = {}
    for key in ("a", "b", "c", "d", "p", "q", "x", "y", "n"):
        val = getattr(args, key)
        if val is not None:
            inputs[key] = val
    rep = catalog.evaluate(args.id, **inputs)
    _emit(rep.to_dict())
    _note(f"{rep.id}: {rep.verdict} (margin {rep.margin:.6g})")
    return _report_exit(rep.verdict)


# bench/tracing.py wraps run_sweep and run_kyfan_sweep where cli binds them, so
# the commands call through these names, which import sweep only when called.
def run_sweep(config, csv_path=None):
    from .sweep import run_sweep
    return run_sweep(config, csv_path=csv_path)


def run_kyfan_sweep(config, csv_path=None):
    from .sweep import run_kyfan_sweep
    return run_kyfan_sweep(config, csv_path=csv_path)


def _cmd_sweep(args):
    from .rng import DEFAULT_RANGE
    from .sweep import SweepConfig, resolve_ids
    ids = resolve_ids([s for s in args.ids.split(",") if s])
    lo, hi = DEFAULT_RANGE
    bounds = (lo if args.range_lo is None else args.range_lo,
              hi if args.range_hi is None else args.range_hi)
    config = SweepConfig(ids=ids, samples=args.samples, seed=args.seed,
                         sign=args.sign, bounds=bounds, workers=args.workers)
    return _sweep(run_sweep, config, args)


def _cmd_kyfan_sweep(args):
    from .sweep import SweepConfig
    config = SweepConfig(ids=(), samples=args.samples, seed=args.seed,
                         kyfan_n_range=(args.n_min, args.n_max),
                         workers=args.workers)
    return _sweep(run_kyfan_sweep, config, args)


def _sweep(run, config, args):
    """Run a checked sweep config: a failed draw is exit 2, a dead worker 3."""
    from .rng import SamplingError
    from .sweep import SweepFailed
    _check_outputs(args)
    try:
        report = run(config, csv_path=args.csv)
    except SamplingError as exc:
        raise CliError(str(exc)) from exc
    except SweepFailed as exc:
        _note(f"error: {exc}")
        return EXIT_FAILED
    return _finish_sweep(report, args.out)


def _check_outputs(args):
    """Refuse an --out or --csv path that cannot be written, and --out and
    --csv naming one file, before the sweep runs, without creating or
    truncating either file."""
    for path in filter(None, (args.out, args.csv)):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise CliError(f"cannot write {path}: no such directory")
        if os.path.isdir(path) or not os.access(
                path if os.path.exists(path) else folder, os.W_OK):
            raise CliError(f"cannot write {path}: not a writable file")
    # the report would overwrite the CSV
    if args.out and args.csv and os.path.realpath(args.out) == os.path.realpath(args.csv):
        raise CliError(f"--out and --csv name one file: {args.out}")


def _finish_sweep(report, out_path):
    payload = dumps(report) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
        _note(f"report written to {out_path}")
    else:
        sys.stdout.write(payload)
    for id, r in report["results"].items():
        low = r["min_margin"]
        _note(f"{id}: samples={r['samples_run']} "
              f"min_margin={'none' if low is None else format(low, '.6g')} "
              f"equality={r['equality_cases']} violations={r['violation_count']}")
    if report["total_violations"]:
        _note(f"TOTAL VIOLATIONS: {report['total_violations']}")
        return EXIT_VIOLATION
    return EXIT_OK


def _parse_sample(text):
    """Comma-separated decimals or a JSON array."""
    import json
    text = text.strip()
    try:
        if text.startswith("["):
            values = [float(v) for v in json.loads(text)]
        else:
            values = [float(tok) for tok in text.replace(",", " ").split()]
    except (ValueError, TypeError) as exc:
        raise CliError(f"could not parse sample values: {exc}") from exc
    if not values:
        raise CliError("empty sample")
    return values


def _cmd_kyfan_check(args):
    from . import kyfan
    values = _parse_sample(args.x)
    try:
        stats = kyfan.compute_stats(kyfan.KyFanSample(values))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    reports = kyfan.all_slacks(stats)
    out = {"stats": stats.as_dict(),
           "reports": {id: rep.to_dict() for id, rep in reports.items()}}
    _emit(out)
    worst = VIOLATED if any(r.verdict == VIOLATED for r in reports.values()) else HOLDS
    for id in sorted(reports):
        rep = reports[id]
        _note(f"{id}: {rep.verdict} (margin {rep.margin:.6g})")
    skipped = set(kyfan.KYFAN_IDS) - set(reports)
    if skipped:
        _note(f"skipped for constant sample: {', '.join(sorted(skipped))}")
    return EXIT_VIOLATION if worst == VIOLATED else EXIT_OK


#: The inputs each oracle-compare op takes, checked before the oracle runs.
_OP_INPUTS = {
    **dict.fromkeys(("A", "G", "H", "L", "I"), ("a", "b")),
    "Lp": ("a", "b", "p"),
    **dict.fromkeys(("f", "g", "f_prime", "g_prime"), ("a", "b", "c", "d", "x")),
}


def _cmd_oracle_compare(args):
    from . import oracle
    inputs = {}
    for key in ("a", "b", "c", "d", "x", "p"):
        val = getattr(args, key)
        if val is not None:
            inputs[key] = val
    for key in _OP_INPUTS[args.op]:
        if key not in inputs:
            raise CliError(f"--{key} is required for op {args.op}")
    try:
        # the binary64 path first: it rejects inputs outside the op's domain
        fast = _fast_path(args.op, inputs)
        res = oracle.oracle_eval(args.op, inputs, digits=args.digits)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    rel = oracle.oracle_rel_err(fast, res)
    bound = oracle.PUBLISHED_BOUNDS[args.op]
    _emit({"op": args.op, "inputs": inputs, "fast": fast, "oracle": str(res.value),
           "digits": args.digits, "rel_err": rel, "published_bound": bound})
    # past binary64's range no relative bound holds, but the rounded value is right
    rounded = rel > bound and fast == float(res.value)
    _note(f"{args.op}: rel_err {rel:.3e} vs bound {bound:.0e}"
          + ("; fast is the oracle rounded to binary64" if rounded else ""))
    return EXIT_OK if rel <= bound or rounded else EXIT_VIOLATION


def _fast_path(op, inputs):
    from . import ratio
    if op in ("A", "G", "H", "L", "I"):
        return means.evaluate_mean(op, inputs["a"], inputs["b"])
    if op == "Lp":
        return means.evaluate_mean("Lp", inputs["a"], inputs["b"], p=inputs["p"])
    quad = ratio.OrderedQuad(inputs["a"], inputs["b"], inputs["c"], inputs["d"])
    fn = {"f": ratio.ratio_value, "g": ratio.log_ratio_value,
          "f_prime": ratio.ratio_derivative, "g_prime": ratio.log_ratio_derivative}[op]
    return fn(quad, inputs["x"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meanineq",
        description="special means, power-ratio functions, and slack-valued "
                    "inequality verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("means-eval", help="evaluate one mean")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--mean", choices=means.MEAN_IDS, required=True)
    p.add_argument("--p", type=float, default=None,
                   help="exponent, required iff --mean Lp")
    p.set_defaults(fn=_cmd_means_eval)

    p = sub.add_parser("ineq-list", help="list inequality ids")
    p.set_defaults(fn=_cmd_ineq_list)

    p = sub.add_parser("ineq-check", help="evaluate one inequality")
    p.add_argument("--id", required=True)
    for key in ("a", "b", "c", "d", "p", "q", "x", "y"):
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=_cmd_ineq_check)

    p = sub.add_parser("sweep", help="sweep catalog ids over random samples")
    p.add_argument("--ids", default="all", help="comma-separated ids or 'all'")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sign", choices=("any", "positive", "negative", "zero"),
                   default="any")
    # None is rng.DEFAULT_RANGE, read by _cmd_sweep: the parser loads no rng
    p.add_argument("--range-lo", type=float, default=None)
    p.add_argument("--range-hi", type=float, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="per-sample CSV dump")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("kyfan-check", help="evaluate EQ18..EQ31 on one sample")
    p.add_argument("--x", required=True, help="comma-separated values in (0, 1/2]")
    p.set_defaults(fn=_cmd_kyfan_check)

    p = sub.add_parser("kyfan-sweep", help="sweep EQ18..EQ31 over random samples")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(fn=_cmd_kyfan_sweep)

    p = sub.add_parser("oracle-compare", help="binary64 path vs the decimal oracle")
    p.add_argument("--op", choices=tuple(_OP_INPUTS), required=True)
    for key in ("a", "b", "c", "d", "x", "p"):
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--digits", type=int, default=50)
    p.set_defaults(fn=_cmd_oracle_compare)
    return parser


@functools.cache
def _parser():
    """The parser, built on the first call rather than at import, then reused."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(
            _join_negative_floats(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except CliError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except HypothesisViolation as exc:
        _note(f"hypothesis violation: {exc}")
        return EXIT_USAGE
    except (ValueError, OverflowError, KeyError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
