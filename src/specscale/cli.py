"""Command-line surface: the one report path.

Ingests a tuple from the JSON block schema, runs one analysis, and
writes its report as CSV, JSON or OBJ, either to stdout or into an
output directory (written atomically).  The analysis modules only
return values; every output format is decided here, including the rule
that no number is written as ``-0``.  Exit codes: 0 success, 1 usage,
2 malformed or unreadable input, 3 non-self-adjoint input, 4 internal
invariant violation.

``main`` may be called repeatedly in one process; its parser is built once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import algebra, faces, oracle, scale, spectral, structure
from .errors import (
    HermitianError,
    IngestError,
    InvariantViolation,
    SpecScaleError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_JSON = 2
EXIT_NOT_HERMITIAN = 3
EXIT_INVARIANT = 4

COMMANDS = ("support", "extremes", "faces", "slice", "corners", "center", "abelian")


def _at_least_zero(convert, what):
    """An argument type: ``convert(text)``, finite and ``>= 0``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"need {what} >= 0, got {text!r}")
        return value

    return parse


_tolerance = _at_least_zero(float, "a finite value")
_count = _at_least_zero(int, "an integer")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    # --help leaves out the docstring's last paragraph (None under -OO)
    summary = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="specscale", description=summary)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="tuple JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--samples", type=_count, default=256)
        seed_help = "unit-ball sample seed; used only by extremes --format obj"
        p.add_argument("--seed", type=_count, default=0, help=seed_help)
        p.add_argument("--cluster-tol", type=_tolerance, default=None)
        p.add_argument("--eig-eq-tol", type=_tolerance, default=None)
        p.add_argument("--iso-radius", type=_tolerance, default=None)
        p.add_argument("--level", type=float, default=0.5)
        p.add_argument("--format", choices=("csv", "obj"), default=None)
    return parser


@functools.cache
def _parser():
    """The parser ``main`` reuses, built on its first call, not at import:
    ``parse_args`` makes a new namespace per call and help is formatted
    when printed, so nothing carries from one call to the next."""
    return build_parser()


def _write_atomic(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return os.path.join(out_dir, name)


def _emit(args, name, text):
    if args.out:
        path = _write_atomic(args.out, name, text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _number(x):
    """Every float written out, CSV, JSON or OBJ: ``-0.0`` becomes ``0.0``."""
    return float(x) + 0.0


def _plain(value):
    """``value`` as JSON data: numpy scalars and arrays become Python
    numbers and lists, and every float goes through ``_number``."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return _number(value) if isinstance(value, float) else value


def _fields(row):
    """A CSV or OBJ row's fields as written: floats (numpy's included)
    with 17 significant digits, exact; other fields as they are."""
    return [format(_number(v), ".17g") if isinstance(v, float) else v for v in row]


def _emit_csv(args, name, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(_fields(row) for row in rows)
    _emit(args, name, buf.getvalue())


def _emit_json(args, name, payload):
    _emit(args, name, json.dumps(_plain(payload), indent=2) + "\n")


def _emit_obj(args, optuple):
    """Triangulated OBJ mesh of the sampled hull of the scale (n = 2 only)."""
    if optuple.n != 2:
        raise ValueError("OBJ export requires a two-operator tuple (3D scale)")
    samples = max(args.samples, 1024)
    points = oracle.sample_unit_ball(optuple, samples, seed=args.seed)
    hull = oracle.PointCloudHull(points)
    if hull.simplices is None:
        raise ValueError("hull triangulation unavailable for this point cloud")
    # qhull's simplices index the whole sampled cloud; renumber them to
    # the written vertex list (OBJ indices are 1-based)
    position = np.zeros(len(points), dtype=int)
    position[hull.vertex_indices] = np.arange(1, len(hull.vertex_indices) + 1)
    rows = [["v", *v] for v in hull.hull_points]
    rows += [["f", *tri] for tri in position[hull.simplices]]
    text = "".join(" ".join(map(str, _fields(row))) + "\n" for row in rows)
    _emit(args, "hull.obj", text)


def _traces(face):
    """The ``trace_lower``, ``trace_upper`` and ``dimension`` of a face."""
    trace_lower, trace_upper = face.vertices[:, 0]
    return {
        "trace_lower": trace_lower,
        "trace_upper": trace_upper,
        "dimension": face.dimension,
    }


def cmd_support(optuple, args):
    header = (
        ["s"]
        + [f"t{i + 1}" for i in range(optuple.n)]
        + ["alpha", "trace_p_minus", "trace_p_plus", "face_dim"]
    )
    rows = []
    for frame in scale.sweep_frames(
        optuple, args.samples, args.cluster_tol, args.eig_eq_tol
    ):
        t = spectral.SpectralPair(s=0.0, t=frame.t).t
        alphas, dims = scale.level_supports(frame)
        traces = frame.psi_table[:, 0]
        levels = frame.levels.tolist(), alphas.tolist(), dims.tolist()
        rows += [
            (s, *t, alpha, traces[lower], traces[upper], dim)
            for lower, upper, s, alpha, dim in zip(*frame.cuts, *levels)
        ]
    _emit_csv(args, "support.csv", header, rows)


def cmd_extremes(optuple, args):
    if args.format == "obj":
        _emit_obj(args, optuple)
        return
    cloud = scale.extreme_point_cloud(
        optuple,
        args.samples,
        cluster_tol=args.cluster_tol,
        eig_eq_tol=args.eig_eq_tol,
    )
    # proj_trace is the projection's rank, its trace summed over blocks
    header = [f"x{i}" for i in range(optuple.n + 1)] + ["proj_id", "proj_trace"]
    rows = (
        (*point, idx, cloud.projections.rank(idx))
        for idx, point in enumerate(cloud.points)
    )
    _emit_csv(args, "extremes.csv", header, rows)
    stats = {"points": len(cloud), "directions": args.samples}
    print(json.dumps(stats), file=sys.stderr)


def cmd_faces(optuple, args):
    reports = []
    _, passed = faces.sweep_face_cones(
        optuple, args.samples, args.cluster_tol, args.eig_eq_tol
    )
    for face, cone in passed:
        entry = {
            "pair": {"s": face.pair.s, "t": face.pair.t},
            "alpha": face.alpha,
            **_traces(face),
        }
        if cone is not None:
            chain = faces.sweep_face_chain(face, cone)
            entry.update(
                degree=cone.degree,
                degree_exact=cone.exact,
                sharp=cone.degree >= 2,
                chain_length=len(chain),
            )
        reports.append(entry)
    _emit_json(args, "faces.json", reports)


def cmd_slice(optuple, args):
    sl = scale.isotrace_slice(
        optuple, args.level, max(args.samples, 3), args.cluster_tol
    )
    header = [f"x{i + 1}" for i in range(optuple.n)]
    _emit_csv(args, "slice.csv", header, sl.points)


def cmd_corners(optuple, args):
    gaps = []
    sharp = []
    _, passed = faces.sweep_face_cones(
        optuple, args.samples, args.cluster_tol, args.eig_eq_tol
    )
    for face, cone in passed:
        if cone is None:
            continue
        if cone.degree >= 2:
            sharp.append({**_traces(face), "degree": cone.degree})
        for rep in structure.detect_gap(optuple, face.interval, cone):
            gaps.append({"t": rep.t, "s1": rep.s1, "s2": rep.s2})
    _emit_json(args, "corners.json", {"gaps": gaps, "sharp_faces": sharp})


def cmd_center(optuple, args):
    central = []
    swept, passed = faces.sweep_face_cones(
        optuple, args.samples, args.cluster_tol, args.eig_eq_tol
    )
    cloud = scale.ExtremePointCloud(optuple.n)
    cloud.add_frames(swept)
    for face, cone in passed:
        if cone is None:
            continue
        rep = structure.detect_central(optuple, face.interval, cone)
        central.append(
            {
                "tau_lower": rep.tau_lower,
                "tau_upper": rep.tau_upper,
                "rank": rep.rank,
                "central": rep.central,
                "commutator_norm": rep.commutator_norm,
            }
        )
    isolated = structure.isolated_extremes_to_center(
        optuple, cloud, iso_radius=args.iso_radius
    )
    payload = {
        "central_projections": central,
        "isolated_extreme_points": [
            {"point": rep.point, "central": rep.is_central} for rep in isolated
        ],
    }
    _emit_json(args, "center.json", payload)


def cmd_abelian(optuple, args):
    verdict = structure.abelian_verdict(
        optuple,
        directions=args.samples,
        cluster_tol=args.cluster_tol,
        eig_eq_tol=args.eig_eq_tol,
    )
    payload = {
        "abelian": {"geometric": verdict.geometric, "algebraic": verdict.algebraic},
        "extreme_count": verdict.extreme_count,
        "n_dim": verdict.n_dim,
        "cloud_counts": verdict.cloud_counts,
        "max_commutator": verdict.max_commutator,
    }
    _emit_json(args, "abelian.json", payload)
    if verdict.geometric and not verdict.algebraic:
        # Theorem 6.1: countably many extreme points make N abelian
        tol = spectral.CLUSTER_TOL if args.cluster_tol is None else args.cluster_tol
        print(
            "warning: the geometric side reads abelian but the operators do "
            "not commute, against Theorem 6.1; the clustering tolerance "
            f"(--cluster-tol {tol:g}) has likely merged distinct eigenvalues",
            file=sys.stderr,
        )


HANDLERS = {
    "support": cmd_support,
    "extremes": cmd_extremes,
    "faces": cmd_faces,
    "slice": cmd_slice,
    "corners": cmd_corners,
    "center": cmd_center,
    "abelian": cmd_abelian,
}


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        optuple = algebra.load_tuple(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_JSON
    except IngestError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_JSON
    except HermitianError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_NOT_HERMITIAN
    try:
        HANDLERS[args.command](optuple, args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (SpecScaleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
