"""Command-line surface: gen / fit / sweep / compare.

Every run writes a manifest.json with all effective option values (defaults
materialized), so a run can be reproduced exactly from its manifest.
Validation failures exit nonzero before any output path is touched; the
settings records check themselves when built, before the input is read.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    generate_synthetic,
    json_text,
    load_csv,
    save_dataset_csv,
    save_report,
    write_json,
)
from .evaluate import OutlierPolicy, evaluate
from .kmeans import DEFAULT_SEED, ClusteringConfig, fit
from .metrics import DSD, MINKOWSKI, DistanceSpec, METRIC_KINDS, usable_cpus
from .normalize import fit_transform
from .sweep import (
    DEFAULT_COMPARISON_METRICS,
    DEFAULT_INSTANCE_SIZES,
    DEFAULT_P_GRID,
    DSD_OPERATING_P,
    SweepPlan,
    emit_figure_data,
    run_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matclust",
        description="K-means clustering toolkit with a parameterized distance layer",
    )
    parser.add_argument("--version", action="version", version=f"matclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic materials-style dataset")
    gen.add_argument("--classes", type=int, default=3)
    gen.add_argument("--dims", type=int, default=25)
    gen.add_argument("--count", type=int, default=5097)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("-o", "--output", default="mat.csv", help="output CSV path")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-i", "--input", required=True, help="input dataset CSV")
        p.add_argument("-o", "--output-dir", default=".", help="directory for outputs")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--max-iter", type=int, default=100)
        p.add_argument(
            "--outlier-policy", choices=["none", "sigma", "quantile"], default="sigma"
        )
        p.add_argument("--outlier-c", type=float, default=3.0)
        p.add_argument("--outlier-q", type=float, default=0.99)
        p.add_argument("--no-normalize", action="store_true")

    fit_p = sub.add_parser("fit", help="fit one clustering and evaluate it")
    add_common(fit_p)
    fit_p.add_argument("--metric", choices=list(METRIC_KINDS), default="dsd")
    fit_p.add_argument("--p", type=float, default=None)

    sweep_p = sub.add_parser("sweep", help="run the p-grid x instance-size sweep")
    add_common(sweep_p)
    sweep_p.add_argument(
        "--p-values", type=float, nargs="+", default=list(DEFAULT_P_GRID)
    )
    sweep_p.add_argument(
        "--instances", type=int, nargs="+", default=list(DEFAULT_INSTANCE_SIZES)
    )
    sweep_p.add_argument("--jobs", type=int, default=usable_cpus())

    cmp_p = sub.add_parser("compare", help="compare all six metric kinds")
    add_common(cmp_p)
    cmp_p.add_argument(
        "--instances", type=int, nargs="+", default=list(DEFAULT_INSTANCE_SIZES)
    )
    cmp_p.add_argument("--jobs", type=int, default=usable_cpus())

    return parser


def _policy_from_args(args) -> OutlierPolicy:
    return OutlierPolicy(kind=args.outlier_policy, c=args.outlier_c, q=args.outlier_q)


def _manifest(args, extra: dict) -> dict:
    doc = {"tool_version": __version__, "command": args.command}
    doc.update(
        {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    )
    doc.update(extra)
    return doc


def _load_normalized(args) -> tuple[np.ndarray, object]:
    """The input's points, column-major and min-max normalized unless
    --no-normalize, and their stats (None when not normalized)."""
    points = load_csv(args.input).points
    if args.no_normalize:
        return np.asfortranarray(points), None
    stats, normalized = fit_transform(points)
    return normalized, stats


def _cmd_gen(args) -> int:
    dataset = generate_synthetic(args.classes, args.dims, args.count, args.seed)
    out = Path(args.output)
    save_dataset_csv(dataset, out)
    write_json(_manifest(args, {"rows_written": dataset.n_points}), f"{out}.manifest.json")
    print(f"wrote {dataset.n_points} rows x {dataset.dimension} attributes to {out}")
    return 0


def _write_run(args, stats, files: dict[str, str], extra: dict) -> Path:
    """Add stats.json and manifest.json to the rendered files, then create
    the output directory and write them all; returns the directory."""
    if stats is not None:
        files["stats.json"] = stats.to_json()
    files["manifest.json"] = json_text(_manifest(args, extra))
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        save_report(text, out / name)
    return out


def _cmd_fit(args) -> int:
    p = args.p
    if args.metric in (MINKOWSKI, DSD) and p is None:
        p = DSD_OPERATING_P if args.metric == DSD else 2.0
    spec = DistanceSpec(args.metric, p)
    policy = _policy_from_args(args)
    config = ClusteringConfig(k=args.k, metric=spec, seed=args.seed, max_iter=args.max_iter)
    points, stats = _load_normalized(args)
    model = fit(points, config)
    report = evaluate(points, model, policy)

    files = {
        "model.json": model.to_json(),
        "report.csv": report.to_csv(),
        "report.json": report.to_json(),
    }
    _write_run(args, stats, files, {"p_effective": spec.p, "converged": model.converged})
    print(
        f"fit k={args.k} metric={spec.kind}"
        + (f" p={spec.p}" if spec.p is not None else "")
        + f" seed={args.seed}: accuracy {report.cluster_accuracy_pct:.4g}%"
        f" / outliers {report.outlier_pct:.4g}% ({model.iterations_run} iterations)"
    )
    return 0


def _run_sweep_like(args, metrics: tuple[DistanceSpec, ...]) -> int:
    plan = SweepPlan(
        metrics=metrics,
        instance_sizes=tuple(args.instances),
        k=args.k,
        seed=args.seed,
        policy=_policy_from_args(args),
        max_iter=args.max_iter,
        jobs=args.jobs,
    )
    points, stats = _load_normalized(args)
    result = run_sweep(plan, points)

    files = {"sweep.csv": result.to_csv(), "sweep.json": result.to_json()}
    out = _write_run(args, stats, files, {"rows": len(result.rows)})
    figures = emit_figure_data(result, out)
    print(f"{args.command}: {len(result.rows)} rows -> {out / 'sweep.csv'}; figures: {', '.join(figures)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "sweep":
            return _run_sweep_like(args, tuple(DistanceSpec(DSD, p) for p in args.p_values))
        if args.command == "compare":
            return _run_sweep_like(args, DEFAULT_COMPARISON_METRICS)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
