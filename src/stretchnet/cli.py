"""Command-line front end.

Subcommands: ``unfold`` (OFF in, certified net SVG/JSON out), ``verify``
(re-certify a stored layout), ``census`` (unfold every spanning tree of
a small mesh), and ``sweep`` (minimal stretch factor per direction).

Exit codes: 0 net, 1 overlap (or failed re-check), 2 input error.  All
outputs are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import CompatibilityFailure, MalformedLayout, ThetaOutOfRange, UnfoldError
from .geometry import TILT_BOUND
from .mesh import load_off
from .oracle import census, census_csv
from .transform import sweep_directions
from .tree import TieRule
from .unfold import (
    _json_dumps,
    check_fold_consistency,
    export_json,
    export_svg,
    load_layout_json,
    rebuild_boundary,
)
from .verdict import Status, inconsistent_layout
from .verify import certify_boundary
from .pipeline import stretch_and_unfold

def _load_mesh(path: str):
    with open(path) as fh:
        return load_off(fh)


def _theta(value: str):
    """``--theta-max`` as ``transform`` takes it; ``transform`` checks its range."""
    return None if value == "auto" else float(value)


def _positive(flag: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be a positive finite number, got {value!r}")
    return value


def _write_csv(text: str, out) -> None:
    """Write ``text`` to the ``--out`` path, or to stdout without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_unfold(args) -> int:
    try:
        P = _load_mesh(args.input)
        theta = _theta(args.theta_max)
    except (OSError, ValueError, UnfoldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = stretch_and_unfold(P, theta_max=theta, tie_rule=TieRule(args.tie_rule), seed=args.seed)
    if run.layout is not None:  # a development that broke writes no artefacts
        meta = {"lambda": run.stretch.lam, "theta_max": run.stretch.theta_max, "seed": args.seed}
        base = Path(args.out)
        if base.suffix in (".svg", ".json"):
            base = base.with_suffix("")
        if args.format in ("svg", "both"):
            export_svg(run.layout, base.with_suffix(".svg"), witnesses=run.verdict.witnesses)
        if args.format in ("json", "both"):
            export_json(run.layout, base.with_suffix(".json"), meta=meta)
    print(_json_dumps(run.verdict.to_json()))
    return 0 if run.verdict.status is Status.NET else 1


def cmd_verify(args) -> int:
    try:
        doc = load_layout_json(Path(args.input))
        check_fold_consistency(doc)
        boundary = rebuild_boundary(doc)
    except CompatibilityFailure as exc:  # a torn layout: the same verdict as a broken development
        print(_json_dumps(inconsistent_layout(exc).to_json()))
        return 1
    except (OSError, ValueError, MalformedLayout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = certify_boundary(boundary)
    print(_json_dumps(verdict.to_json()))
    return 0 if verdict.status is Status.NET else 1


def cmd_census(args) -> int:
    try:
        P = _load_mesh(args.input)
        lambdas = [
            tok if tok == "auto" else _positive("--lambda-list", float(tok))
            for tok in args.lambda_list.split(",")
        ]
        theta = _theta(args.theta_max)
        _positive("--cap", args.cap)
    except (OSError, ValueError, UnfoldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = census(P, lambdas=lambdas, cap=args.cap, seed=args.seed, theta_max=theta)
    _write_csv(census_csv(rows), args.out)
    return 0


def cmd_sweep(args) -> int:
    try:
        P = _load_mesh(args.input)
        theta = _theta(args.theta_max)
        _positive("--sweep-k", args.sweep_k)
    except (OSError, ValueError, UnfoldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = sweep_directions(P, args.sweep_k, seed=args.seed, theta_max=theta)
    lines = ["x,y,z,lambda,status"]
    for r in rows:
        lam = "" if r.lam is None else format(r.lam, ".17g")
        lines.append(
            ",".join(format(c, ".17g") for c in r.direction) + f",{lam},{r.status}"
        )
    _write_csv("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretchnet",
        description="Stretch convex polyhedra and unfold them into certified nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--theta-max",
            default="auto",
            help=f"per-edge angle bound in radians, in (0, {TILT_BOUND:.4f}); 'auto' = pi/(20N)",
        )

    p = sub.add_parser("unfold", help="unfold an OFF mesh into a certified net")
    common(p)
    p.add_argument("--out", required=True, help="output path (extension set by --format)")
    p.add_argument("--format", choices=("svg", "json", "both"), default="both")
    p.add_argument("--tie-rule", choices=sorted(r.value for r in TieRule), default="steepest")
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("verify", help="re-certify a stored layout JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="unfold every spanning tree of a small mesh")
    common(p)
    p.add_argument("--lambda-list", default="auto", help="comma list of floats or 'auto'")
    p.add_argument("--cap", type=int, default=1000)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("sweep", help="minimal stretch factor over sampled directions")
    common(p)
    p.add_argument("--sweep-k", type=int, default=100)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
        print(f"error: --seed must be a non-negative integer, got {args.seed!r}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ThetaOutOfRange as exc:  # raised while planning, before any output is written
        print(f"error: --theta-max: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
