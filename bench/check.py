"""Output checker, run outside the timed region.

The oracle here is the benchmark's own: the support function of the
spectral scale, ``h(u) = sum_j c_j * sum(positive eigenvalues of
u_0 + sum_i u_i B_ij)``, computed with numpy straight from the input JSON.
It shares no code with specscale, so no change to the program can mask
itself by changing the reference.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

SUPPORT_TOL = 1e-9  # the acceptance suite's support-identity tolerance
CONTAINMENT_TOL = 1e-8
COMMUTATOR_TOL = 1e-8  # structure.ABELIAN_COMMUTATOR_TOL
COMMUTING_DIAGONALS_POINTS = 14
SLICE_LEVEL = 0.5  # the CLI's default --level, which no op overrides


class Tuple:
    """An operator tuple read from the ingestion schema, blocks grouped by
    size so each support evaluation is one batched ``eigvalsh`` per size."""

    def __init__(self, obj):
        blocks = obj["blocks"]
        self.n = len(blocks[0]["operators"])
        self.mats = []  # mats[j][i]: operator i on block j
        self.weights = np.array([float(b["weight"]) for b in blocks])
        for b in blocks:
            self.mats.append(
                [
                    np.array([[complex(re, im) for re, im in row] for row in m])
                    for m in b["operators"]
                ]
            )
        self.groups = {}
        for j, b in enumerate(blocks):
            self.groups.setdefault(int(b["dim"]), []).append(j)
        self.stacks = {
            d: np.array([[self.mats[j][i] for i in range(self.n)] for j in idx])
            for d, idx in self.groups.items()
        }  # (blocks, n, d, d)
        self._eig_cache = {}

    def _eigs(self, t):
        key = tuple(np.asarray(t, dtype=float))
        if key not in self._eig_cache:
            self._eig_cache[key] = [
                (self.weights[idx], np.linalg.eigvalsh(np.einsum("i,kiab->kab", t, self.stacks[d])))
                for d, idx in self.groups.items()
            ]
        return self._eig_cache[key]

    def support(self, u):
        """``max <u, x>`` over the spectral scale."""
        u = np.asarray(u, dtype=float)
        total = 0.0
        for w, eig in self._eigs(u[1:]):
            total += float(w @ np.clip(u[0] + eig, 0.0, None).sum(axis=1))
        return total

    def max_commutator(self):
        worst = 0.0
        for i in range(self.n):
            for k in range(i + 1, self.n):
                for ops in self.mats:
                    x, y = ops[i], ops[k]
                    worst = max(worst, float(np.max(np.abs(x @ y - y @ x))))
        return worst


def directions(n, seed, count=32):
    """Signed axes of R^{n+1} plus ``count`` seeded random unit vectors."""
    rng = np.random.default_rng([seed, 99])
    g = rng.standard_normal((count, n + 1))
    eye = np.eye(n + 1)
    return np.vstack([eye, -eye, g / np.linalg.norm(g, axis=1)[:, None]])


def _rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _contained(tup, points, dirs, what):
    """Problems for points of ``points`` outside ``h(u)`` on ``dirs``."""
    problems = []
    if not len(points):
        return [f"{what}: no points"]
    pts = np.asarray(points, dtype=float)
    for u in dirs:
        h = tup.support(u)
        excess = float(np.max(pts @ u)) - h
        if excess > CONTAINMENT_TOL * max(1.0, abs(h)):
            problems.append(f"{what}: point exceeds h(u)={h!r} by {excess:.3e} at u={list(u)}")
            break
    return problems


def _support_identity(tup, s, t, alpha, what):
    expected = -tup.support(np.concatenate(([s], -np.asarray(t))))
    if abs(alpha - expected) > SUPPORT_TOL * max(1.0, abs(s), abs(expected)):
        return [f"{what}: alpha {alpha!r} != -h(s, -t) = {expected!r} at s={s!r}"]
    return []


def check_support(tup, text, dirs):
    header, rows = _rows(text)
    n = tup.n
    if header[: n + 2] != ["s"] + [f"t{i + 1}" for i in range(n)] + ["alpha"]:
        return [f"support: unexpected header {header}"]
    if not rows:
        return ["support: no rows"]
    problems = []
    for r in rows:
        s, t, alpha, lo, hi = r[0], r[1 : n + 1], r[n + 1], r[n + 2], r[n + 3]
        problems += _support_identity(tup, s, t, alpha, "support")
        if not -1e-12 <= lo <= hi + 1e-12 <= 1.0 + 2e-12:
            problems.append(f"support: traces out of order or range: {lo!r}, {hi!r}")
        if problems:
            break
    return problems


def check_extremes(tup, text, dirs, tuple_name):
    header, rows = _rows(text)
    n = tup.n
    if header[: n + 1] != [f"x{i}" for i in range(n + 1)]:
        return [f"extremes: unexpected header {header}"]
    problems = _contained(tup, [r[: n + 1] for r in rows], dirs, "extremes")
    if tuple_name == "commuting_diagonals" and len(rows) != COMMUTING_DIAGONALS_POINTS:
        problems.append(
            f"extremes: commuting_diagonals gave {len(rows)} points, "
            f"expected {COMMUTING_DIAGONALS_POINTS}"
        )
    return problems


def check_obj(tup, text, dirs):
    verts, faces = [], []
    for line in text.splitlines():
        kind, *rest = line.split()
        if kind == "v":
            verts.append([float(x) for x in rest])
        elif kind == "f":
            faces.append([int(x) for x in rest])
    if len(verts) < 4 or not faces:
        return [f"obj: {len(verts)} vertices and {len(faces)} faces"]
    if any(not 1 <= i <= len(verts) for f in faces for i in f):
        return ["obj: face references a missing vertex"]
    return _contained(tup, verts, dirs, "obj")


def check_slice(tup, text, dirs, level):
    header, rows = _rows(text)
    if header != [f"x{i + 1}" for i in range(tup.n)]:
        return [f"slice: unexpected header {header}"]
    return _contained(tup, [[level] + r for r in rows], dirs, "slice")


def _degree_bound(entries, n, what):
    for e in entries:
        if "degree" in e and e["degree"] + e["dimension"] > n + 1:
            return [f"{what}: degree {e['degree']} + dimension {e['dimension']} > n + 1"]
    return []


def check_faces(tup, text):
    reports = json.loads(text)
    if not reports:
        return ["faces: no faces"]
    problems = _degree_bound(reports, tup.n, "faces")
    for e in reports:
        problems += _support_identity(tup, e["pair"]["s"], e["pair"]["t"], e["alpha"], "faces")
    return problems[:1]


def check_corners(tup, text):
    payload = json.loads(text)
    if set(payload) != {"gaps", "sharp_faces"}:
        return [f"corners: unexpected keys {sorted(payload)}"]
    return _degree_bound(payload["sharp_faces"], tup.n, "corners")


def check_center(tup, text, dirs):
    payload = json.loads(text)
    if set(payload) != {"central_projections", "isolated_extreme_points"}:
        return [f"center: unexpected keys {sorted(payload)}"]
    pts = [p["point"] for p in payload["isolated_extreme_points"]]
    return _contained(tup, pts, dirs, "center") if pts else []


def check_abelian(tup, text):
    verdict = json.loads(text)["abelian"]["algebraic"]
    expected = tup.max_commutator() <= COMMUTATOR_TOL
    if verdict != expected:
        return [f"abelian: algebraic verdict {verdict} but pairwise commutator check says {expected}"]
    return []


def check_output(tup, op, stdout, dirs):
    """Problems with one op's stdout; an empty list means it passed."""
    try:
        if op.command == "support":
            return check_support(tup, stdout, dirs)
        if op.command == "extremes":
            return check_extremes(tup, stdout, dirs, op.tuple_name)
        if op.command == "obj":
            return check_obj(tup, stdout, dirs)
        if op.command == "slice":
            return check_slice(tup, stdout, dirs, SLICE_LEVEL)
        if op.command == "faces":
            return check_faces(tup, stdout)
        if op.command == "corners":
            return check_corners(tup, stdout)
        if op.command == "center":
            return check_center(tup, stdout, dirs)
        if op.command == "abelian":
            return check_abelian(tup, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{op.command}: unreadable output ({type(exc).__name__}: {exc})"]
    return [f"no checker for command {op.command!r}"]


class Verifier:
    """Checks every op execution of a run.

    The first successful output of an op is checked against the oracle;
    every later execution of the same op must reproduce its bytes exactly.
    """

    def __init__(self, tuple_objs, seed):
        self.tuples = {name: Tuple(obj) for name, obj in tuple_objs.items()}
        self.seed = seed
        self.refs = {}

    def verify(self, key, op, rc, stdout):
        """Problems with one execution; an empty list means it passed."""
        if rc != 0:
            return [f"exit code {rc}"]
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        ref = self.refs.get(key)
        if ref is not None:
            return [] if digest == ref else ["output bytes differ from an earlier pass"]
        tup = self.tuples[op.tuple_name]
        problems = check_output(tup, op, stdout, directions(tup.n, self.seed))
        if not problems:
            self.refs[key] = digest
        return problems
