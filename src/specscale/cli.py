"""Command-line surface.

Ingests a tuple from the JSON block schema, runs one analysis, and
emits CSV/JSON/OBJ either to stdout or into an output directory
(written atomically).  Exit codes: 0 success, 1 usage, 2 malformed
input JSON, 3 non-self-adjoint input, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

from . import algebra, faces, scale, spectral, structure
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
    parser = _Parser(prog="specscale", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="tuple JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--samples", type=_count, default=256)
        seed_help = "unit-ball sample seed; used only by extremes --format obj"
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--cluster-tol", type=_tolerance, default=None)
        p.add_argument("--eig-eq-tol", type=_tolerance, default=None)
        p.add_argument("--iso-radius", type=_tolerance, default=None)
        p.add_argument("--level", type=float, default=0.5)
        p.add_argument("--format", choices=("csv", "obj"), default=None)
    return parser


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


def cmd_support(optuple, args):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    n = optuple.n
    writer.writerow(
        ["s"]
        + [f"t{i + 1}" for i in range(n)]
        + ["alpha", "trace_p_minus", "trace_p_plus", "face_dim"]
    )
    for face in scale.sweep_faces(
        optuple, args.samples, args.cluster_tol, args.eig_eq_tol
    ):
        numbers = (face.pair.s, *face.pair.t, face.alpha, *face.vertices[:, 0])
        writer.writerow([scale._f17(x) for x in numbers] + [face.dimension])
    _emit(args, "support.csv", buf.getvalue())


def cmd_extremes(optuple, args):
    if args.format == "obj":
        buf = io.StringIO()
        scale.export_hull_obj(
            optuple, buf, samples=max(args.samples, 1024), seed=args.seed
        )
        _emit(args, "hull.obj", buf.getvalue())
        return
    cloud = scale.extreme_point_cloud(
        optuple,
        args.samples,
        cluster_tol=args.cluster_tol,
        eig_eq_tol=args.eig_eq_tol,
    )
    buf = io.StringIO()
    scale.export_extremes_csv(cloud, buf)
    _emit(args, "extremes.csv", buf.getvalue())
    stats = {"points": len(cloud), "directions": args.samples}
    print(json.dumps(stats), file=sys.stderr)


def _face_pass(optuple, args, cloud=None):
    """The run's ``spectral.FrameCache`` and ``(face, cone)`` per distinct
    sweep face, the cone None for the whole scale.

    The sweep fills the cache, and the cones of all proper faces are
    sampled together from it (``faces.normal_cones``), so each direction
    part is decomposed once per run.  A ``cloud`` given gets the extreme
    points of every swept direction.  Kept faces are bucketed by rank, as
    faces of different ranks never match.
    """
    frames = spectral.FrameCache(optuple, args.cluster_tol, args.eig_eq_tol)
    distinct = []
    by_ranks = {}
    for frame in scale.sweep_frames(
        optuple, args.samples, args.cluster_tol, args.eig_eq_tol, frames
    ):
        if cloud is not None:
            cloud.add_frame(frame)
        for face in scale.faces_in_frame(frame):
            bucket = by_ranks.setdefault(faces.ranks(face.interval).tobytes(), [])
            if not any(faces.intervals_equal(face.interval, f) for f in bucket):
                bucket.append(face.interval)
                distinct.append(face)
    proper = [faces._is_proper(optuple, f.interval) for f in distinct]
    cones = iter(
        faces.normal_cones(
            optuple,
            [f.interval for f, p in zip(distinct, proper) if p],
            args.samples,
            args.cluster_tol,
            args.eig_eq_tol,
            frames,
        )
    )
    return frames, [(f, next(cones) if p else None) for f, p in zip(distinct, proper)]


def cmd_faces(optuple, args):
    reports = []
    frames, passed = _face_pass(optuple, args)
    for face, cone in passed:
        trace_lower, trace_upper = face.vertices[:, 0]
        entry = {
            "pair": {
                "s": scale._number(face.pair.s),
                "t": [scale._number(x) for x in face.pair.t],
            },
            "alpha": scale._number(face.alpha),
            "trace_lower": scale._number(trace_lower),
            "trace_upper": scale._number(trace_upper),
            "dimension": face.dimension,
        }
        if cone is not None:
            chain = faces._chain_from_cone(
                optuple,
                face.interval,
                cone,
                args.samples,
                args.cluster_tol,
                args.eig_eq_tol,
                frames,
            )
            entry.update(
                degree=cone.degree,
                degree_exact=cone.exact,
                sharp=cone.degree >= 2,
                chain_length=len(chain),
            )
        reports.append(entry)
    _emit(args, "faces.json", json.dumps(reports, indent=2) + "\n")


def cmd_slice(optuple, args):
    sl = scale.isotrace_slice(
        optuple, args.level, max(args.samples, 3), args.cluster_tol
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(optuple.n)])
    for row in sl.points:
        writer.writerow([scale._f17(x) for x in row])
    _emit(args, "slice.csv", buf.getvalue())


def cmd_corners(optuple, args):
    sharp_list = []
    gap_reports = []
    frames, passed = _face_pass(optuple, args)
    for face, cone in passed:
        if cone is None:
            continue
        if cone.degree >= 2:
            trace_lower, trace_upper = face.vertices[:, 0]
            sharp_list.append(
                {
                    "trace_lower": scale._number(trace_lower),
                    "trace_upper": scale._number(trace_upper),
                    "dimension": face.dimension,
                    "degree": cone.degree,
                }
            )
        gap_reports += structure.detect_gap(
            optuple,
            face.interval,
            cone,
            cluster_tol=args.cluster_tol,
            eig_eq_tol=args.eig_eq_tol,
            frames=frames,
        )
    payload = structure.report_json(gap_reports=gap_reports)
    payload["sharp_faces"] = sharp_list
    _emit(args, "corners.json", json.dumps(payload, indent=2) + "\n")


def cmd_center(optuple, args):
    reports = []
    cloud = scale.ExtremePointCloud(optuple.n)
    for face, cone in _face_pass(optuple, args, cloud)[1]:
        if cone is None:
            continue
        reports.append(structure.detect_central(optuple, face.interval, cone))
    payload = structure.report_json(central_reports=reports)
    isolated = structure.isolated_extremes_to_center(
        optuple, cloud, iso_radius=args.iso_radius
    )
    payload["isolated_extreme_points"] = [
        {
            "point": [scale._number(x) for x in rep.point],
            "central": rep.is_central,
        }
        for rep in isolated
    ]
    _emit(args, "center.json", json.dumps(payload, indent=2) + "\n")


def cmd_abelian(optuple, args):
    verdict = structure.abelian_verdict(optuple, directions=args.samples)
    payload = structure.report_json(verdict=verdict)
    _emit(args, "abelian.json", json.dumps(payload, indent=2) + "\n")


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        optuple = algebra.load_tuple(args.input)
    except FileNotFoundError as exc:
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
