"""Command-line surface: region dumps, covering listings, exact p-values,
interval-width sweeps, volume reports, and bandit stopping-time tables.

Outputs are machine readable: CSV (with a header row) for tabular sweeps,
JSON (with a schema_version field) for structured region dumps, always
UTF-8 with LF line endings. A JSON output is one line, keys sorted and no
whitespace between tokens, ended by one LF; ``python -m json.tool FILE``
prints it indented. Earlier versions indented it by two spaces: those
bytes differ, the objects ``json.loads`` gives do not. Exit codes: 0
success; 2 an argument that argparse, ``_check_args`` or the library
refused (every ValueError, a grid or outcome table over the
MAX_GRID_POINTS budget included); 1 a computation that failed
(EmptyScanError, a bandit run that hit its sample cap) or an output that
could not be written (an OSError, such as a missing directory in
``--out``). Each refusal or failure prints one ``error:`` line to stderr.
Output is written only after the full computation succeeds, so invalid
input never leaves partial output behind. ``region --construction all``
writes one file per construction, in turn: when a later write fails, the
earlier files stay written.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .bandit import METHODS, benchmark_arms, lucb_run
from .core import (
    EmpiricalDistribution,
    SimplexGrid,
    SimplexPoint,
    compositions_array,
)
from .core import _check_budget
from .functionals import (
    LinearFunctional,
    empirical_bernstein_interval,
    functional_interval,
    hoeffding_interval,
    kl_bernoulli_interval,
    oracle_chernoff_interval,
    scan_resolution,
)
from .regions import (
    KINDS,
    RegionSpec,
    covering_collection,
    membership_grid,
    p_value,
    region_membership,
)
from .volume import average_volume

SCHEMA_VERSION = 1


def _parse_list(cast, noun: str):
    """An argparse type for a comma-separated list of ``cast`` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(cast(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


_parse_probs = _parse_list(float, "reals")
_parse_int_list = _parse_list(int, "integers")


def _write_text(out: str | None, content: str) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    # compact, so json.dumps runs its C encoder; an indent forces the
    # pure-Python one, which costs about three times as long
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _suffixed(out: str | None, tag: str) -> str | None:
    """``out`` with ``_tag`` before the file name's extension: a dot in a
    directory name is not an extension."""
    if out is None:
        return None
    root, ext = os.path.splitext(out)
    return f"{root}_{tag}{ext}"


def _boundary_rows(points: np.ndarray, member: np.ndarray, resolution: int) -> list:
    """Member grid points (k = 3) with a non-member neighbour c - e_a + e_b,
    ordered by angle for a plottable polyline. A neighbour with c_a > 0 is
    always on the grid, so it is looked up by its first two coordinates."""
    lattice = np.rint(points * resolution).astype(np.int64)
    inside = np.zeros((resolution + 1, resolution + 1), dtype=bool)
    inside[lattice[:, 0], lattice[:, 1]] = member
    idx = np.flatnonzero(member)
    c = lattice[idx]
    on_edge = np.zeros(len(idx), dtype=bool)
    for a, b in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        rows = np.flatnonzero(c[:, a] > 0)
        nb = c[rows]
        nb[:, a] -= 1
        nb[:, b] += 1
        on_edge[rows] |= ~inside[nb[:, 0], nb[:, 1]]
    boundary = idx[on_edge]
    if len(boundary) == 0:
        return []
    pts = points[boundary]
    centroid = points[member].mean(axis=0)
    # project to the plane for angular ordering; coordinates stay barycentric
    x = pts[:, 1] + 0.5 * pts[:, 2] - (centroid[1] + 0.5 * centroid[2])
    y = (math.sqrt(3.0) / 2.0) * (pts[:, 2] - centroid[2])
    return pts[np.argsort(np.arctan2(y, x))].tolist()


def cmd_region(config: argparse.Namespace) -> int:
    phat = EmpiricalDistribution(config.phat)
    n, k = phat.n, phat.k
    kinds = KINDS if config.construction == "all" else (config.construction,)
    specs = [RegionSpec(config.delta, kind, n, k) for kind in kinds]  # before any dump
    resolution = scan_resolution(n) if config.grid is None else config.grid
    grid = SimplexGrid(k, resolution)  # a point query too refuses a resolution below 1
    if config.p is not None:
        p = SimplexPoint(config.p)
        sys.stdout.write("true\n" if region_membership(p, phat, specs[0]) else "false\n")
        return 0

    points = grid.points
    outputs = []
    for spec in specs:
        member = membership_grid(phat, spec, points)
        common = {
            "construction": spec.kind,
            "phat_counts": list(phat.counts),
            "n": n,
            "k": k,
            "delta": config.delta,
            "grid_resolution": resolution,
        }
        if config.mode == "boundary":
            payload = dict(common, boundary=_boundary_rows(points, member, resolution))
            text = _json_text(payload)
        elif config.fmt == "json":
            payload = dict(common, points=points.tolist(), member=member.astype(int).tolist())
            text = _json_text(payload)
        else:
            header = [f"p{i + 1}" for i in range(k)] + ["member"]
            rows = [[*row, m] for row, m in zip(points.tolist(), member.astype(int).tolist())]
            text = _csv_text(header, rows)
        target = _suffixed(config.out, spec.kind) if len(specs) > 1 else config.out
        outputs.append((target, text))
    for target, text in outputs:
        _write_text(target, text)
    return 0


def cmd_covering(config: argparse.Namespace) -> int:
    p = SimplexPoint(config.p)
    collection = covering_collection(p, config.n, config.delta)
    members = compositions_array(p.k, config.n)[list(collection.rows)].tolist()
    if config.fmt == "json":
        payload = {
            "p": list(p.probs),
            "n": config.n,
            "delta": config.delta,
            "total_mass": collection.total_mass,
            "members": members,
            "cumulative": list(collection.cumulative),
        }
        _write_text(config.out, _json_text(payload))
        return 0
    header = ["rank"] + [f"c{i + 1}" for i in range(p.k)] + ["probability", "cumulative"]
    columns = zip(members, collection.probabilities, collection.cumulative)
    rows = [[rank, *m, repr(pr), repr(cum)] for rank, (m, pr, cum) in enumerate(columns, 1)]
    _write_text(config.out, _csv_text(header, rows))
    return 0


def cmd_pvalue(config: argparse.Namespace) -> int:
    phat = EmpiricalDistribution(config.phat)
    p = SimplexPoint(config.p)
    sys.stdout.write(f"{p_value(phat, p)!r}\n")
    return 0


def cmd_widths(config: argparse.Namespace) -> int:
    delta = config.delta
    values = LinearFunctional((0.0, 0.5, 1.0))
    header = ["n", "method", "lower", "upper", "width", "note"]
    rows: list[list] = []
    sweep = []
    for n in config.n_list:  # any n's spec, grid or table is refused before the first interval
        base = int(round(n / 10.0))
        phat = EmpiricalDistribution((base, base, n - 2 * base))
        spec = RegionSpec(delta, "levelset", n, 3)
        resolution = scan_resolution(n) if config.grid is None else config.grid
        SimplexGrid(3, resolution)  # the resolution rule, which builds nothing
        _check_budget(3, resolution)
        _check_budget(3, n)
        sweep.append((n, phat, spec, resolution))
    for n, phat, spec, resolution in sweep:
        if n % 10 != 0:
            rows.append([n, "warning", "", "", "", f"counts adjusted to {phat.counts}"])
        mean_hat = values.apply(phat.as_point())
        intervals = {
            "levelset": functional_interval(phat, values, delta, spec, M=resolution),
            "hoeffding": hoeffding_interval(mean_hat, n, delta),
            "oracle-chernoff": oracle_chernoff_interval(
                mean_hat, _plugin_variance(values, phat), n, delta
            ),
            "empirical-bernstein": empirical_bernstein_interval(
                _expand_samples(values, phat), delta
            ),
            "kl-bernoulli": kl_bernoulli_interval(mean_hat, n, delta),
        }
        for name, iv in intervals.items():
            rows.append([n, name, repr(iv.lower), repr(iv.upper), repr(iv.width), ""])
    _write_text(config.out, _csv_text(header, rows))
    return 0


def _plugin_variance(values: LinearFunctional, phat: EmpiricalDistribution) -> float:
    # the sweep fixes the observed proportions by design, so the plug-in
    # variance under phat stands in for the true variance
    probs = phat.as_point().probs
    mean = math.fsum(v * q for v, q in zip(values.values, probs))
    return math.fsum(q * (v - mean) ** 2 for v, q in zip(values.values, probs))


def _expand_samples(values: LinearFunctional, phat: EmpiricalDistribution) -> list[float]:
    out: list[float] = []
    for v, c in zip(values.values, phat.counts):
        out.extend([v] * c)
    return out


def cmd_volume(config: argparse.Namespace) -> int:
    spec = RegionSpec(config.delta, config.construction, config.n, config.k)
    report = average_volume(spec, config.grid)
    if config.fmt == "csv":
        header = [f"c{i + 1}" for i in range(config.k)] + ["volume_fraction"]
        rows = [
            list(phat.counts) + [repr(vol)] for phat, vol in report.per_phat.items()
        ]
        rows.append(["total"] * config.k + [repr(report.total)])
        _write_text(config.out, _csv_text(header, rows))
        return 0
    payload = {
        "construction": report.construction,
        "n": config.n,
        "k": config.k,
        "delta": config.delta,
        "grid_resolution": report.grid_resolution,
        "total": report.total,
        "per_phat": [
            {"counts": list(phat.counts), "volume_fraction": vol}
            for phat, vol in report.per_phat.items()
        ],
    }
    _write_text(config.out, _json_text(payload))
    return 0


def cmd_bandit(config: argparse.Namespace) -> int:
    arms = benchmark_arms()
    header = [
        "record",
        "trial",
        "method",
        "stopping_time",
        "identified_arm",
        "completed",
        "q25",
        "median",
        "q75",
    ]
    rows: list[list] = []
    capped = 0
    for method in config.methods:
        times = []
        for trial in range(config.trials):
            run = lucb_run(
                arms,
                config.delta,
                config.tolerance,
                method,
                seed=config.seed + trial,
            )
            capped += not run.completed
            times.append(run.stopping_time)
            rows.append(
                [
                    "trial",
                    trial,
                    method,
                    run.stopping_time,
                    run.identified_arm,
                    int(run.completed),
                    "",
                    "",
                    "",
                ]
            )
        q25, q50, q75 = (float(q) for q in np.percentile(times, [25, 50, 75]))
        rows.append(
            ["summary", "", method, "", "", "", repr(q25), repr(q50), repr(q75)]
        )
    _write_text(config.out, _csv_text(header, rows))
    if capped:
        runs = config.trials * len(config.methods)
        print(f"error: {capped} of {runs} runs hit the sample cap", file=sys.stderr)
    return 1 if capped else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexcr",
        description="Exact confidence regions for categorical data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, run, *, delta=0.5, fmt=None) -> None:
        p.add_argument("--delta", type=float, default=delta, help="error level in (0,1)")
        if fmt is not None:  # widths and bandit write CSV only
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=fmt)
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(run=run)

    p_region = sub.add_parser("region", help="region membership dump or point query")
    p_region.add_argument("--phat", type=_parse_int_list, required=True)
    p_region.add_argument("--p", type=_parse_probs, help="single membership query point")
    p_region.add_argument("--construction", choices=KINDS + ("all",), default="levelset")
    p_region.add_argument("--grid", type=int)
    p_region.add_argument("--mode", choices=("membership", "boundary"), default="membership")
    common(p_region, cmd_region, fmt="json")

    p_cov = sub.add_parser("covering", help="list the covering collection of p")
    p_cov.add_argument("--p", type=_parse_probs, required=True)
    p_cov.add_argument("--n", type=int, required=True)
    common(p_cov, cmd_covering, fmt="csv")

    p_pv = sub.add_parser("pvalue", help="exact p-value of phat under p")
    p_pv.add_argument("--phat", type=_parse_int_list, required=True)
    p_pv.add_argument("--p", type=_parse_probs, required=True)
    p_pv.set_defaults(run=cmd_pvalue)

    p_w = sub.add_parser("widths", help="interval widths against sample size")
    p_w.add_argument("--n-list", type=_parse_int_list, required=True)
    p_w.add_argument("--grid", type=int)
    common(p_w, cmd_widths, delta=0.7)

    p_vol = sub.add_parser("volume", help="per-outcome region volumes and total")
    p_vol.add_argument("--k", type=int, required=True)
    p_vol.add_argument("--n", type=int, required=True)
    p_vol.add_argument("--construction", choices=KINDS, default="levelset")
    p_vol.add_argument("--grid", type=int, default=300)
    common(p_vol, cmd_volume, fmt="json")

    p_b = sub.add_parser("bandit", help="LUCB stopping-time table")
    p_b.add_argument("--trials", type=int, default=10)
    p_b.add_argument("--seed", type=int, required=True)
    p_b.add_argument("--tolerance", type=float, default=0.0)
    p_b.add_argument(
        "--methods",
        type=lambda s: tuple(s.split(",")),
        default=METHODS,
        help="comma-separated subset of " + ",".join(METHODS),
    )
    common(p_b, cmd_bandit, delta=0.05)

    return parser


def _check_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Refuse, as usage errors and before any computation, the arguments
    that no library call sees in time.

    Every other input rule (delta, the tolerance, p on the simplex, the
    grid's least resolution, n and k, the MAX_GRID_POINTS budget) is the
    library's: its ValueError, raised before any output is written, is
    what main maps to exit 2."""
    command = args.subcommand
    if command == "bandit":
        if args.trials < 1:
            parser.error("--trials must be >= 1")
        unknown = set(args.methods) - set(METHODS)
        if unknown:  # lucb_run would see a bad second method only after the first's trials
            parser.error(f"unknown methods: {sorted(unknown)}")
    if command == "region":
        if args.mode == "boundary" and len(args.phat) != 3:
            parser.error("boundary mode requires k = 3")
        if args.construction == "all" and args.p is not None:
            parser.error("point queries need a single --construction")
    if command == "widths" and any(n < 10 for n in args.n_list):
        parser.error("widths sweep needs n >= 10")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ValueError, OverflowError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
