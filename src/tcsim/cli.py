"""Command-line front end: configure runs, verify, and emit reports.

Subcommands: wire, lattice, compare, unfold.  Structured output is JSON
(``--out``), per-node nullifier variances go to CSV (``--csv``).  Exit code 0
iff every check passed, 1 on a failed check, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

import numpy as np

from .gaussian import VACUUM_VARIANCE, db_to_r, r_to_db
from .graphs import delete_nodes, sheared_cylinder_graph, unfolds_to_grid
from .pipeline import PipelineConfig, equivalence_check, run_pipeline

NULLIFIER_TOL = 1e-9
EQUIVALENCE_TOL = 1e-9


def _add_squeezing_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--squeezing-db", type=float, help="squeezing in decibels")
    group.add_argument("--squeezing-r", type=float, help="squeezing parameter r")


def _add_report_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="FILE.json", help="write JSON report")
    parser.add_argument("--csv", metavar="FILE.csv", help="write per-node variances")
    parser.add_argument(
        "--emit-records", action="store_true", help="include measurement records"
    )


def _parse_range(text: str):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like A..B, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcsim",
        description="Streaming simulator for temporal-mode CV cluster states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wire = sub.add_parser("wire", help="run a quantum-wire pipeline")
    wire.add_argument("--nodes", type=int, required=True)
    wire.add_argument("--seed", type=int, default=0)
    wire.add_argument("--verify", action="store_true")
    _add_squeezing_args(wire)
    _add_report_args(wire)

    lattice = sub.add_parser("lattice", help="run a square-lattice pipeline")
    lattice.add_argument("--nodes", type=int, required=True)
    lattice.add_argument("--width", type=int, required=True)
    lattice.add_argument("--seed", type=int, default=0)
    lattice.add_argument("--verify", action="store_true")
    _add_squeezing_args(lattice)
    _add_report_args(lattice)

    compare = sub.add_parser("compare", help="pipeline vs canonical construction")
    compare.add_argument("--topology", choices=("wire", "lattice"), required=True)
    compare.add_argument("--nodes", type=int, required=True)
    compare.add_argument("--width", type=int, default=0)
    compare.add_argument("--range", type=_parse_range, required=True, dest="node_range")
    compare.add_argument("--seed", type=int, default=0)
    _add_squeezing_args(compare)
    _add_report_args(compare)

    unfold = sub.add_parser("unfold", help="sheared-cylinder unfolding check")
    unfold.add_argument("--width", type=int, required=True)
    unfold.add_argument("--cols", type=int, required=True)
    _add_report_args(unfold)

    return parser


def _squeezing(args) -> float:
    if getattr(args, "squeezing_db", None) is not None:
        return db_to_r(args.squeezing_db)
    if getattr(args, "squeezing_r", None) is not None:
        return args.squeezing_r
    return 0.0


def _config_from_args(args, topology: str) -> PipelineConfig:
    return PipelineConfig(
        topology=topology,
        n_pulses=args.nodes,
        width=getattr(args, "width", 0) or 0,
        squeezing_r=_squeezing(args),
        mode="verify" if getattr(args, "verify", False) else "compute",
        seed=getattr(args, "seed", 0),
    )


def _config_dict(config: PipelineConfig) -> dict:
    return {
        "topology": config.topology,
        "nodes": config.n_pulses,
        "width": config.width,
        "squeezing_r": config.squeezing_r,
        "squeezing_db": r_to_db(config.squeezing_r),
        "mode": config.mode,
        "seed": config.seed,
    }


def _run_report(config: PipelineConfig, emit_records: bool) -> dict:
    report = run_pipeline(config)
    target = VACUUM_VARIANCE * math.exp(-2 * config.squeezing_r)
    checks = []
    expected_high = config.reach + 2
    checks.append(
        {
            "name": "memory_bound",
            "pass": report.high_water <= expected_high,
            "value": report.high_water,
            "tolerance": expected_high,
        }
    )
    if config.mode == "verify":
        max_err = max(
            (abs(v - target) for _, v in report.nullifier_checks), default=0.0
        )
        checks.append(
            {
                "name": "nullifier_exactness",
                "pass": max_err <= NULLIFIER_TOL,
                "value": max_err,
                "tolerance": NULLIFIER_TOL,
            }
        )
    out = {
        "config": _config_dict(config),
        "high_water": report.high_water,
        "nullifiers": [
            {"node": node, "variance": var} for node, var in report.nullifier_checks
        ],
        "checks": checks,
    }
    if emit_records:
        out["records"] = [
            {
                "node": rec.node,
                "angle": rec.angle,
                "outcome": rec.outcome,
                "feedforward": list(rec.feedforward),
            }
            for rec in report.records
        ]
    return out


def _compare_report(args) -> dict:
    config = _config_from_args(args, args.topology)
    discrepancy = equivalence_check(config, args.node_range)
    return {
        "config": {
            **_config_dict(config),
            "range": f"{args.node_range[0]}..{args.node_range[1]}",
        },
        "max_discrepancy": discrepancy,
        "checks": [
            {
                "name": "pipeline_matches_canonical",
                "pass": discrepancy <= EQUIVALENCE_TOL,
                "value": discrepancy,
                "tolerance": EQUIVALENCE_TOL,
            }
        ],
    }


def _unfold_report(args) -> dict:
    m, k = args.width, args.cols
    graph = sheared_cylinder_graph(m * k, m)
    reduced = delete_nodes(graph, [j for j in graph.nodes if j % m == 0])
    result = unfolds_to_grid(reduced, m)
    grid = f"{m - 1}x{k}" if result.unfolds else None
    return {
        "config": {"width": m, "cols": k},
        "unfolds": result.unfolds,
        "grid": grid,
        "checks": [
            {
                "name": "unfolds_to_grid",
                "pass": result.unfolds,
                "value": grid or f"offending edge {result.offending_edge}",
                "tolerance": "exact edge-set equality",
            }
        ],
    }


def _write_outputs(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if getattr(args, "csv", None):
        rows = ["node,variance"]
        rows += [f"{n['node']},{n['variance']}" for n in report.get("nullifiers", [])]
        with open(args.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A squeezing so large that the covariance overflows is a usage error,
        # not a result: raise on it instead of printing numpy warnings.
        with np.errstate(over="raise", invalid="raise"):
            if args.command in ("wire", "lattice"):
                config = _config_from_args(args, args.command)
                report = _run_report(config, args.emit_records)
            elif args.command == "compare":
                report = _compare_report(args)
            else:
                report = _unfold_report(args)
            _write_outputs(report, args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
