"""Golden CLI regression: every command on every reference fixture.

The recorded runs live in ``tests/golden/<fixture>-<command>.json`` with
the exit code, stdout and stderr of ``specscale <command> --input
<fixture> --samples 8``.  The face commands (``faces``, ``corners``,
``center``) are also recorded on the coordinate axes alone, ``--samples
0``, in ``tests/golden/<fixture>-<command>-s0.json``, since that is the
setting the benchmark times.  Two seeded many-block tuples, built here,
are recorded for ``support --samples 8`` and ``faces --samples 0``: their
sweeps cut many gaps of rank above one, whose face dimensions the
support rows and the cone degrees read.  A seeded generic tuple on one
dense 16 x 16 block is recorded for the face commands at ``--samples 0``:
its faces' commutant directions differ from their sweep rays in the last
bits.  ``extremes`` and ``abelian`` are recorded on the generated tuples
at ``--samples 8``, and ``extremes`` on the fixtures at ``--samples 32``,
the density the benchmark times.  Numbers must match within 1e-12 (relative to
``max(1, |x|)``); everything else, the exit code included, must match
exactly.  Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files that no longer match.
"""

import contextlib
import io
import json
import os
import re

import numpy as np
import pytest

from specscale import algebra, faces, fixtures, scale, spectral
from specscale.algebra import (
    FiniteAlgebra,
    HermitianOperator,
    OperatorTuple,
    save_tuple,
)
from specscale.cli import COMMANDS, main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SAMPLES = 8
NUMBER_TOL = 1e-12
FIXTURES = {
    "reciprocal_diagonal": lambda: fixtures.reciprocal_diagonal(8),
    "two_point": fixtures.two_point,
    "pauli_pair": fixtures.pauli_pair,
    "commuting_diagonals": fixtures.commuting_diagonals,
    "block_with_scalars": fixtures.block_with_scalars,
}


def many_one_dim_blocks():
    """Two operators on 64 one-dimensional blocks of seeded unequal
    weights, whose joint values come from a 5 x 5 integer grid, so most
    of them repeat."""
    rng = np.random.default_rng(64)
    values = rng.integers(-2, 3, size=(2, 64)).astype(float)
    weights = rng.uniform(0.5, 1.5, 64)
    alg = FiniteAlgebra(tuple((1, c) for c in weights / weights.sum()))
    ops = [HermitianOperator([[[v]] for v in row]) for row in values]
    return OperatorTuple(alg, tuple(ops))


def many_two_by_two_blocks():
    """Two operators on 24 two-by-two blocks: copies of three seeded
    non-commuting integer pairs, each copy conjugated by the identity, the
    swap or ``diag(1, i)`` (all exact in floating point), and scalar pairs,
    so eigenvalues repeat across blocks and within them."""
    rng = np.random.default_rng(22)
    unitaries = [np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, 1j])]
    raw = rng.integers(-2, 3, size=(3, 2, 2, 2)) + 1j * rng.integers(
        -1, 2, size=(3, 2, 2, 2)
    )
    families = raw + raw.conj().swapaxes(-1, -2)  # (family, operator, 2, 2)
    blocks = []  # per block, its two matrices
    for family, u in zip(rng.integers(0, 4, 24), rng.integers(0, 3, 24)):
        if family == 3:
            blocks.append([v * np.eye(2) for v in rng.integers(-2, 3, 2)])
        else:
            U = unitaries[u]
            blocks.append([U @ b @ U.conj().T for b in families[family]])
    weights = rng.uniform(0.5, 1.5, 24)
    alg = FiniteAlgebra(tuple((2, c) for c in weights / (2 * weights.sum())))
    ops = [HermitianOperator([mats[i] for mats in blocks]) for i in range(2)]
    return OperatorTuple(alg, tuple(ops))


def dense_block(d, n, seed):
    """``n`` seeded generic Hermitian operators on one dense ``d x d`` block."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops.append(HermitianOperator([(g + g.conj().T) / 2]))
    return OperatorTuple(FiniteAlgebra(((d, 1.0 / d),)), tuple(ops))


def dense_d16_n2():
    return dense_block(16, 2, 16)


MANY_BLOCKS = {
    "many_one_dim_blocks": many_one_dim_blocks,
    "many_two_by_two_blocks": many_two_by_two_blocks,
}
MANY_BLOCK_CASES = [
    (name, cmd, samples)
    for name in MANY_BLOCKS
    for cmd, samples in (("support", SAMPLES), ("faces", 0))
]
DENSE_BLOCKS = {"dense_d16_n2": dense_d16_n2}
TUPLES = {**FIXTURES, **MANY_BLOCKS, **DENSE_BLOCKS}
CASES = [(name, cmd) for name in FIXTURES for cmd in COMMANDS]
# the extreme clouds of the generated tuples, and the abelian verdict that
# reads them, at the default golden density
CLOUD_CASES = [
    (name, cmd)
    for name in (*MANY_BLOCKS, *DENSE_BLOCKS)
    for cmd in ("extremes", "abelian")
]
# extremes at the density the benchmark times on the fixtures
BENCH_EXTREMES_SAMPLES = 32
FACE_COMMANDS = ("faces", "corners", "center")
AXIS_CASES = [(name, cmd) for name in FIXTURES for cmd in FACE_COMMANDS]
DENSE_SAMPLES = 64
DENSE_CASES = [
    (name, cmd) for name in ("pauli_pair", "block_with_scalars") for cmd in FACE_COMMANDS
]
DENSE_BLOCK_CASES = [(name, cmd) for name in DENSE_BLOCKS for cmd in FACE_COMMANDS]
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def run_case(name, command, directory, samples=SAMPLES):
    path = os.path.join(directory, f"{name}.json")
    save_tuple(TUPLES[name](), path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", path, "--samples", str(samples)])
    # streams as line lists, so the recorded files diff line by line
    return {
        "exit_code": code,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
    }


def _golden_path(name, command, samples=SAMPLES):
    suffix = "" if samples == SAMPLES else f"-s{samples}"
    return os.path.join(GOLDEN_DIR, f"{name}-{command}{suffix}.json")


def assert_text_close(actual, expected, where):
    """Same text up to numbers, and numbers within NUMBER_TOL."""
    assert _NUMBER.split(actual) == _NUMBER.split(expected), where
    got, want = _NUMBER.findall(actual), _NUMBER.findall(expected)
    assert len(got) == len(want), where
    for k, (a, b) in enumerate(zip(map(float, got), map(float, want))):
        assert a == b or abs(a - b) <= NUMBER_TOL * max(1.0, abs(a), abs(b)), (
            f"{where}: number {k} is {a!r}, recorded {b!r}"
        )


def assert_run_matches(actual, expected, where):
    """Same exit code, and streams the same up to numbers within NUMBER_TOL."""
    assert actual["exit_code"] == expected["exit_code"], where
    for stream in ("stdout", "stderr"):
        assert_text_close(
            "".join(actual[stream]), "".join(expected[stream]), f"{where} {stream}"
        )


def assert_no_negative_zero(run, where):
    """No stream writes ``-0``: ``assert_text_close`` equates it with ``0``,
    and some recorded files still hold it."""
    for stream in ("stdout", "stderr"):
        tokens = _NUMBER.findall("".join(run[stream]))
        assert not [t for t in tokens if t.startswith("-") and float(t) == 0.0], (
            f"{where} {stream} writes a negative zero"
        )


def _check_golden(name, command, directory, samples=SAMPLES):
    with open(_golden_path(name, command, samples), encoding="utf-8") as fh:
        expected = json.load(fh)
    actual = run_case(name, command, directory, samples)
    assert_run_matches(actual, expected, f"{name} {command}")
    assert_no_negative_zero(actual, f"{name} {command}")


@pytest.mark.parametrize("name,command", CASES)
def test_cli_matches_golden(name, command, tmp_path):
    _check_golden(name, command, str(tmp_path))


@pytest.mark.parametrize("name,command", AXIS_CASES)
def test_cli_matches_axis_golden(name, command, tmp_path):
    _check_golden(name, command, str(tmp_path), samples=0)


@pytest.mark.parametrize("name,command", DENSE_CASES)
def test_cli_matches_dense_golden(name, command, tmp_path):
    _check_golden(name, command, str(tmp_path), samples=DENSE_SAMPLES)


@pytest.mark.parametrize("name,command", DENSE_BLOCK_CASES)
def test_cli_matches_dense_block_golden(name, command, tmp_path):
    _check_golden(name, command, str(tmp_path), samples=0)


@pytest.mark.parametrize("name,command,samples", MANY_BLOCK_CASES)
def test_cli_matches_many_block_golden(name, command, samples, tmp_path):
    _check_golden(name, command, str(tmp_path), samples=samples)


@pytest.mark.parametrize("name,command", CLOUD_CASES)
def test_cli_matches_cloud_golden(name, command, tmp_path):
    _check_golden(name, command, str(tmp_path))


@pytest.mark.parametrize("name", FIXTURES)
def test_cli_matches_bench_extremes_golden(name, tmp_path):
    _check_golden(name, "extremes", str(tmp_path), samples=BENCH_EXTREMES_SAMPLES)


def test_number_comparison_catches_changes():
    assert_text_close("a,1.0,-0.0\n", "a,1.0000000000001,0\n", "tolerant")
    with pytest.raises(AssertionError):
        assert_text_close("a,1.0\n", "a,1.001\n", "number")
    with pytest.raises(AssertionError):
        assert_text_close("a,1.0\n", "b,1.0\n", "text")
    assert_no_negative_zero({"stdout": ["x1,0,1e-300\n"], "stderr": []}, "zero")
    for token in ("-0", "-0.0", "-0e0", "-0.000"):
        with pytest.raises(AssertionError):
            assert_no_negative_zero({"stdout": [f"{token}\n"], "stderr": []}, token)


def test_support_decomposes_once_per_direction(tmp_path, monkeypatch):
    calls = []  # one entry per direction decomposed
    original = spectral.direction_frames

    def counting(optuple, ts, *args, **kwargs):
        ts = list(ts)
        calls.extend(ts)
        return original(optuple, ts, *args, **kwargs)

    monkeypatch.setattr(spectral, "direction_frames", counting)
    for name in ("reciprocal_diagonal", "pauli_pair", "block_with_scalars"):
        optuple = FIXTURES[name]()
        calls.clear()
        assert run_case(name, "support", str(tmp_path))["exit_code"] == 0
        assert len(calls) == len(scale._cloud_t_directions(optuple.n, SAMPLES))


@pytest.mark.parametrize("name", sorted(MANY_BLOCKS))
def test_support_builds_no_cut_down(name, tmp_path, monkeypatch):
    # every sweep level's face dimension is read off its frame
    calls = []

    def refuse(*args, **kwargs):
        calls.append(1)
        raise AssertionError("support built a cut-down")

    monkeypatch.setattr(algebra.Compression, "__init__", refuse)
    monkeypatch.setattr(scale, "scale_dimension", refuse)
    assert run_case(name, "support", str(tmp_path))["exit_code"] == 0
    assert calls == []


@pytest.mark.parametrize("samples", [0, 8])
@pytest.mark.parametrize("name", [*FIXTURES, "many_two_by_two_blocks"])
def test_faces_chain_length_matches_the_library_chain(name, samples, tmp_path):
    # the CLI reads a sweep face's chain off its cone; the library chain,
    # which exposes the combined normal of the face's own cone sample and
    # cuts down from there, is the independent reference
    optuple = TUPLES[name]()
    _, passed = faces.sweep_face_cones(optuple, samples)
    result = run_case(name, "faces", str(tmp_path), samples)
    assert result["exit_code"] == 0
    reports = json.loads("".join(result["stdout"]))
    assert len(reports) == len(passed)
    assert any(cone for _, cone in passed)
    for report, (face, cone) in zip(reports, passed):
        if cone is None:  # the whole scale
            assert "chain_length" not in report
            continue
        chain = faces.minimal_exposed_chain(optuple, face.interval, samples)
        assert report["chain_length"] == len(chain)


def test_slice_stacks_one_eigh_per_block_size(tmp_path, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(np.shape(a))
        return eigh(a)

    def no_decompose(*args, **kwargs):
        raise AssertionError("slice decomposed one direction at a time")

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(spectral, "decompose", no_decompose)
    for name in FIXTURES:
        dims = FIXTURES[name]().algebra.dims
        calls.clear()
        assert run_case(name, "slice", str(tmp_path))["exit_code"] == 0
        # the fixtures are small enough for one chunk of directions
        assert sorted(shape[-1] for shape in calls) == sorted(set(dims))


def test_record_keeps_files_that_match_within_tolerance(tmp_path):
    path = str(tmp_path / "case.json")
    run = {"exit_code": 0, "stdout": ["x1\n", "0.30000000000000004\n"], "stderr": []}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run, fh)
    churn = dict(run, stdout=["x1\n", "0.29999999999999999\n"])
    assert _golden_matches(path, churn, "churn")
    assert not _golden_matches(path, dict(run, stdout=["x1\n", "0.3001\n"]), "value")
    assert not _golden_matches(path, dict(run, exit_code=4), "exit code")
    assert not _golden_matches(str(tmp_path / "missing.json"), run, "missing")


def _golden_matches(path, result, where):
    """Whether the golden file at ``path`` exists and ``result`` matches it."""
    try:
        with open(path, encoding="utf-8") as fh:
            assert_run_matches(result, json.load(fh), where)
    except (OSError, ValueError, KeyError, AssertionError):
        return False
    return True


def record():
    """Write the golden file of every case whose run no longer matches it
    (or that has none), and leave the others as they are, so that a
    re-record carries no last-digit churn."""
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        runs = [case + (SAMPLES,) for case in CASES]
        runs += [case + (0,) for case in AXIS_CASES]
        runs += [case + (DENSE_SAMPLES,) for case in DENSE_CASES]
        runs += MANY_BLOCK_CASES
        runs += [case + (0,) for case in DENSE_BLOCK_CASES]
        runs += [case + (SAMPLES,) for case in CLOUD_CASES]
        runs += [(name, "extremes", BENCH_EXTREMES_SAMPLES) for name in FIXTURES]
        for name, command, samples in runs:
            result = run_case(name, command, directory, samples)
            path = _golden_path(name, command, samples)
            where = f"{name} {command} --samples {samples}"
            if _golden_matches(path, result, where):
                print(f"{where}: unchanged")
                continue
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
                fh.write("\n")
            print(f"{where}: exit {result['exit_code']}, written")


if __name__ == "__main__":
    record()
