"""Command-line front end.

One fixed (n, L, d) context per invocation.  Exit codes: 0 success or
suite pass, 1 suite fail, 2 usage or IO error.  Every usage or IO error is
raised as a ValueError, and `main` alone turns it into one "error:" line
on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .content import choquet_norm, frostman_measure, hausdorff_content
from .harness import SUITES, run_suite
from .lattice import CubeId, GridFunction, LatticeConfig, Tiling
from .maximal import fractional_measure_maximal, hl_maximal, orlicz_fractional_maximal
from .sparse import (
    CantorConfig,
    SparseFamily,
    apply_sparse,
    cantor_content,
    cantor_family,
    cantor_lux_bound,
    unboundedness_demo,
    verify_sparse,
)
from .spaces import _SPACES, SpaceSpec, space_norm
from .young import by_name, luxemburg_norm

USAGE_ERROR = 2


def fmt(x: float) -> str:
    """Fixed 12-decimal output for mid-range values, scientific otherwise."""
    if x == 0.0 or 1e-4 <= abs(x) < 1e6:
        return f"{x:.12f}"
    return f"{x:.12e}"


def _load_grid(path: str, args) -> GridFunction:
    try:
        if path.endswith(".csv"):
            if args.n is None or args.L is None or args.d is None:
                raise ValueError("CSV input needs explicit --n, --L and --d")
            return GridFunction.from_csv(path, LatticeConfig(args.n, args.L, args.d))
        with open(path) as fh:
            f = GridFunction.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read grid function from {path}: {exc}")
    # A JSON file carries its own lattice; a flag may only repeat it.
    for flag in ("n", "L", "d"):
        given, stored = getattr(args, flag), getattr(f.config, flag)
        if given is not None and given != stored:
            raise ValueError(f"--{flag} {given} does not match {flag}={stored} in {path}")
    return f


def _parse_cubes(text: str) -> list[CubeId]:
    return [CubeId.parse(tok) for tok in text.split()]


def _emit(args, obj) -> None:
    """JSON, or with --format csv one "key,value" row per field and one
    "key,item" row per element of a list-valued field."""
    if getattr(args, "format", "json") == "csv" and isinstance(obj, dict):
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for key in sorted(obj):
            items = obj[key] if isinstance(obj[key], list) else [obj[key]]
            writer.writerows([key, item] for item in items)
    else:
        print(json.dumps(obj, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="choquet", description=__doc__)
    parser.add_argument("--n", type=int, default=None, help="spatial dimension")
    parser.add_argument("--L", type=int, default=None, help="resolution level")
    parser.add_argument("--d", type=float, default=None, help="content exponent")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("content", help="Hausdorff content of an indicator file")
    p.add_argument("-i", "--input", required=True)

    p = sub.add_parser("frostman", help="Frostman measure of an indicator file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("choquet", help="Choquet L^p norm of a grid function")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("luxemburg", help="Luxemburg norm over a cube")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--cube", required=True, help='cube address "k:j0,j1,..."')
    p.add_argument("--phi", required=True)

    p = sub.add_parser("maximal", help="maximal operator output")
    p.add_argument("which", choices=["hl", "md", "orlicz"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--phi", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("norm", help="space norm of a grid function")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--space", required=True, choices=list(_SPACES))
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--phi", default=None)
    p.add_argument("--tiling", default=None, help='space-separated cube addresses')

    p = sub.add_parser("sparse", help="sparse family operations")
    p.add_argument("action", choices=["verify", "apply"])
    p.add_argument("-i", "--input", default=None, help="grid function (for apply)")
    p.add_argument("--cubes", required=True, help="space-separated cube addresses")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("cantor", help="Cantor family computations")
    p.add_argument("action", choices=["family", "content", "lux-bound", "growth"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--p", type=float, default=1.0)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES)}")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _config(args) -> LatticeConfig:
    if args.n is not None and args.L is not None and args.d is not None:
        return LatticeConfig(args.n, args.L, args.d)
    raise ValueError("this command needs --n, --L and --d")


def _write_grid(args, g: GridFunction) -> None:
    if args.output:
        try:
            if args.output.endswith(".csv"):
                g.to_csv(args.output)
            else:
                with open(args.output, "w") as fh:
                    fh.write(g.to_json())
        except OSError as exc:
            raise ValueError(f"cannot write grid function to {args.output}: {exc}")
    else:
        print(g.to_json())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the flush at exit
        # does not raise again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # every usage and IO error, UnknownSuiteError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "content":
        f = _load_grid(args.input, args)
        res = hausdorff_content(f)
        out = res.to_json_dict()
        out["value"] = fmt(out["value"])
        _emit(args, out)
        return 0

    if cmd == "frostman":
        f = _load_grid(args.input, args)
        _write_grid(args, frostman_measure(f))
        return 0

    if cmd == "choquet":
        f = _load_grid(args.input, args)
        print(fmt(choquet_norm(f, args.p)))
        return 0

    if cmd == "luxemburg":
        f = _load_grid(args.input, args)
        print(fmt(luxemburg_norm(f, CubeId.parse(args.cube), by_name(args.phi))))
        return 0

    if cmd == "maximal":
        f = _load_grid(args.input, args)
        if args.which == "hl":
            res = hl_maximal(f)
        elif args.which == "md":
            res = fractional_measure_maximal(f)
        else:
            if args.phi is None:
                raise ValueError("orlicz maximal needs --phi")
            alpha = args.alpha if args.alpha is not None else f.config.n - f.config.d
            res = orlicz_fractional_maximal(f, alpha, by_name(args.phi))
        _write_grid(args, res.values)
        return 0

    if cmd == "norm":
        f = _load_grid(args.input, args)
        tiling = Tiling(_parse_cubes(args.tiling)) if args.tiling else None
        spec = SpaceSpec(
            args.space,
            p=args.p,
            phi=by_name(args.phi) if args.phi else None,
            tiling=tiling,
        )
        print(fmt(space_norm(f, spec)))
        return 0

    if cmd == "sparse":
        fam = SparseFamily(_parse_cubes(args.cubes), args.eta)
        if args.action == "verify":
            if args.input:
                config = _load_grid(args.input, args).config
            else:
                config = _config(args)
            report = verify_sparse(config, fam)
            _emit(args, {
                "min_ratio": fmt(report.min_ratio),
                "carleson_constant": fmt(report.carleson_constant),
                "sparse_at_eta": report.is_sparse(args.eta),
            })
            return 0
        if args.input is None:
            raise ValueError("sparse apply needs -i")
        f = _load_grid(args.input, args)
        _write_grid(args, apply_sparse(f, fam))
        return 0

    if cmd == "cantor":
        if args.n is None:
            raise ValueError("cantor commands need --n")
        c = CantorConfig(args.n, args.m, args.depth)
        # The construction fixes d = n/m; a flag may only repeat it.
        if args.d is not None and args.d != c.d:
            raise ValueError(f"--d {args.d} does not match d=n/m={c.d} of the Cantor construction")
        if args.action == "family":
            fam = cantor_family(c, args.L)
            _emit(args, fam.family.to_json_dict())
        elif args.action == "content":
            for k in range(c.K + 1):
                print(fmt(cantor_content(c, k, args.L)))
        elif args.action == "lux-bound":
            res = cantor_lux_bound(c, args.L)
            _emit(args, {key: fmt(val) for key, val in res.items()})
        else:
            for depth, norm in unboundedness_demo(c, args.p, args.L):
                print(f"{depth},{fmt(norm)}")
        return 0

    # verify: argparse admits no other command
    config = _config(args)
    report = run_suite(args.suite, args.trials, config.L, args.seed, n=config.n, d=config.d)
    print(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
