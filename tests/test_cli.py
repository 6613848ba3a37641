import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specscale import cli, fixtures
from specscale.algebra import save_tuple
from specscale.cli import COMMANDS, main


@pytest.fixture()
def inputs(tmp_path):
    paths = {}
    for name, optuple in (
        ("reciprocal", fixtures.reciprocal_diagonal(8)),
        ("pauli", fixtures.pauli_pair()),
        ("commuting", fixtures.commuting_diagonals()),
        ("zeros", fixtures.zero_tuple(n=1, dim=2)),
        ("blockpair", fixtures.block_with_scalars()),
    ):
        p = tmp_path / f"{name}.json"
        save_tuple(optuple, p)
        paths[name] = str(p)
    return paths


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_command_exits_one(inputs, capsys):
    code, _, err = run(["frobnicate", "--input", inputs["pauli"]], capsys)
    assert code == 1
    assert "usage" in err


def test_missing_command_exits_one(capsys):
    code, _, _ = run([], capsys)
    assert code == 1


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run(["support", "--input", str(bad)], capsys)
    assert code == 2
    assert "input error" in err


def test_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"blocks": [{"dim": 1, "operators": [[[[0, 0]]]]}]}))
    code, _, err = run(["support", "--input", str(bad)], capsys)
    assert code == 2
    assert "weight" in err


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda p: p.write_text('{"blocks": [[' + "1" * 5000 + "]]}"),
            "input error: invalid JSON: Exceeds the limit",
        ),
        (
            lambda p: p.write_text('{"blocks": ' + "[" * 10**5 + "]" * 10**5 + "}"),
            "input error: invalid JSON: maximum recursion depth exceeded",
        ),
        (
            lambda p: p.write_bytes(b'{"blocks": []} \xff\xfe'),
            "input error: not UTF-8 text:",
        ),
        (lambda p: p.mkdir(), "error: [Errno 21] Is a directory:"),
    ],
    ids=["over-long-integer", "deeply-nested", "not-utf8", "directory"],
)
def test_unreadable_input_exits_two(tmp_path, capsys, make, message):
    bad = tmp_path / "bad.json"
    make(bad)
    code, out, err = run(["support", "--input", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err


def test_non_hermitian_exits_three(tmp_path, capsys):
    bad = tmp_path / "nh.json"
    bad.write_text(
        json.dumps(
            {
                "blocks": [
                    {
                        "weight": 0.5,
                        "dim": 2,
                        "operators": [
                            [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
                        ],
                    }
                ]
            }
        )
    )
    code, _, err = run(["support", "--input", str(bad)], capsys)
    assert code == 3
    assert "self-adjoint" in err


def _support_rows(out):
    reader = csv.DictReader(io.StringIO(out))
    return list(reader)


def test_support_reciprocal_positive_sweep(inputs, capsys):
    code, out, _ = run(
        ["support", "--input", inputs["reciprocal"], "--samples", "4"], capsys
    )
    assert code == 0
    rows = _support_rows(out)
    plus = [r for r in rows if float(r["t1"]) > 0]
    distinct_upper = {r["trace_p_plus"] for r in plus}
    # eight eigenvalue tails plus the empty projection
    assert len(distinct_upper) == 9


def test_support_zero_operator_alphas(inputs, capsys):
    code, out, _ = run(
        ["support", "--input", inputs["zeros"], "--samples", "4"], capsys
    )
    assert code == 0
    for row in _support_rows(out):
        s, alpha = float(row["s"]), float(row["alpha"])
        assert min(abs(alpha), abs(alpha + s)) <= 1e-12


def test_support_pauli_axis_row(inputs, capsys):
    code, out, _ = run(
        ["support", "--input", inputs["pauli"], "--samples", "8"], capsys
    )
    assert code == 0
    rows = [
        r
        for r in _support_rows(out)
        if abs(float(r["t1"]) - 1.0) < 1e-12
        and abs(float(r["t2"])) < 1e-12
        and abs(float(r["s"])) < 1e-12
    ]
    assert rows, "axis sweep must include the (s=0, t=(1,0)) row"
    assert float(rows[0]["alpha"]) == pytest.approx(-0.5, abs=1e-12)


def test_abelian_reports(inputs, capsys):
    code, out, _ = run(
        ["abelian", "--input", inputs["commuting"], "--samples", "48"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["abelian"] == {"geometric": True, "algebraic": True}
    assert set(payload) == {
        "abelian", "extreme_count", "n_dim", "cloud_counts", "max_commutator"
    }

    code, out, _ = run(
        ["abelian", "--input", inputs["pauli"], "--samples", "48"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["abelian"] == {"geometric": False, "algebraic": False}
    assert payload["cloud_counts"][1] > payload["cloud_counts"][0]


def test_abelian_warns_when_the_two_sides_disagree(inputs, capsys):
    # --cluster-tol 10 merges every b_t into one cluster, so the geometric
    # side reads abelian for the non-commuting Pauli pair
    argv = ["abelian", "--input", inputs["pauli"], "--samples", "8"]
    code, out, err = run(argv + ["--cluster-tol", "10"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["abelian"] == {"geometric": True, "algebraic": False}
    assert payload["extreme_count"] == 2
    (line,) = err.splitlines()
    assert line.startswith("warning: ") and "--cluster-tol 10" in line
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["abelian"] == {"geometric": False, "algebraic": False}


def test_slice_level_zero_single_point(inputs, capsys):
    code, out, _ = run(
        ["slice", "--input", inputs["pauli"], "--level", "0", "--samples", "16"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["x1,x2", "0,0"]


@pytest.mark.parametrize(
    "name", ["reciprocal", "pauli", "commuting", "zeros", "blockpair"]
)
def test_slice_level_zero_writes_no_negative_zero(inputs, capsys, name):
    code, out, _ = run(
        ["slice", "--input", inputs[name], "--level", "0", "--samples", "16"], capsys
    )
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert rows == [",".join(["0"] * len(header.split(",")))]


def test_corners_report_two_point_gap(inputs, capsys):
    code, out, _ = run(
        ["corners", "--input", inputs["reciprocal"], "--samples", "4"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert any(
        abs(g["s1"] - 1.0 / 3.0) < 1e-12 and abs(g["s2"] - 0.5) < 1e-12
        for g in payload["gaps"]
    )
    assert payload["sharp_faces"]


def test_center_report_blockpair(inputs, capsys):
    code, out, _ = run(
        ["center", "--input", inputs["blockpair"], "--samples", "32"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    central = [c for c in payload["central_projections"] if c["central"]]
    nontrivial = [
        c
        for c in central
        if 1e-9 < c["tau_upper"] < 1.0 - 1e-9 and c["tau_lower"] == c["tau_upper"]
    ]
    assert nontrivial, "the scalar block projection must be detected"


def test_extremes_csv_and_stats(inputs, capsys):
    code, out, err = run(
        ["extremes", "--input", inputs["reciprocal"], "--samples", "16"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x0,x1,proj_id,proj_trace"
    assert lines[1] == "0,0,0,0"  # the zero projection, as 0 and never -0
    assert len(lines) == 17
    stats = json.loads(err.strip().splitlines()[-1])
    assert stats["points"] == 16


def test_obj_export(inputs, capsys):
    code, out, _ = run(
        [
            "extremes",
            "--input",
            inputs["pauli"],
            "--format",
            "obj",
            "--samples",
            "64",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    kinds = {line.split()[0] for line in lines}
    assert kinds == {"v", "f"}


def test_output_directory_atomic_write(inputs, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(
        [
            "abelian",
            "--input",
            inputs["commuting"],
            "--samples",
            "32",
            "--out",
            str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    target = out_dir / "abelian.json"
    assert target.exists()
    payload = json.loads(target.read_text())
    assert payload["abelian"]["algebraic"] is True
    assert not [p for p in os.listdir(out_dir) if p.startswith(".")]


def test_center_reports_isolated_extremes(inputs, capsys):
    code, out, _ = run(
        [
            "center",
            "--input",
            inputs["reciprocal"],
            "--samples",
            "16",
            "--iso-radius",
            "0.001",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    isolated = payload["isolated_extreme_points"]
    assert len(isolated) == 16
    assert all(entry["central"] for entry in isolated)


def test_invariant_violation_exits_four(inputs, capsys, monkeypatch):
    from specscale import cli
    from specscale.errors import InvariantViolation

    def explode(optuple, args):
        raise InvariantViolation("synthetic trip for the exit-code contract")

    monkeypatch.setitem(cli.HANDLERS, "abelian", explode)
    code, _, err = run(["abelian", "--input", inputs["pauli"]], capsys)
    assert code == 4
    assert "invariant violation" in err


def test_runs_are_deterministic(inputs, capsys):
    argv = ["support", "--input", inputs["blockpair"], "--samples", "12"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    argv = ["faces", "--input", inputs["commuting"], "--samples", "8"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


@pytest.mark.parametrize("name", ["pauli", "commuting", "blockpair"])
def test_obj_faces_index_written_vertices(inputs, capsys, name):
    code, out, _ = run(
        ["extremes", "--input", inputs[name], "--format", "obj", "--samples", "8"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    n_vertices = sum(line.startswith("v ") for line in lines)
    indices = [
        int(i) for line in lines if line.startswith("f ") for i in line.split()[1:]
    ]
    assert indices and n_vertices
    assert 1 <= min(indices) and max(indices) <= n_vertices


def test_obj_export_builds_no_extreme_cloud(inputs, capsys, monkeypatch):
    from specscale import scale

    def unused(*args, **kwargs):
        raise AssertionError("the OBJ path needs no extreme point cloud")

    monkeypatch.setattr(scale, "extreme_point_cloud", unused)
    code, out, _ = run(
        ["extremes", "--input", inputs["pauli"], "--format", "obj", "--samples", "8"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    n_vertices = sum(line.startswith("v ") for line in lines)
    indices = [
        int(i) for line in lines if line.startswith("f ") for i in line.split()[1:]
    ]
    assert indices and 1 <= min(indices) and max(indices) <= n_vertices


def _one_block_json(weight=0.5, dim=2, entry=(1, 0)):
    """A 2x2 tuple in the ingestion schema with one configurable entry."""
    zero = [0, 0]
    matrix = [[list(entry), zero], [zero, [1, 0]]]
    return {"blocks": [{"weight": weight, "dim": dim, "operators": [matrix]}]}


@pytest.mark.parametrize(
    "text, path",
    [
        (
            json.dumps(_one_block_json(entry=(float("nan"), 0))),
            "blocks[0].operators[0][0][0]",
        ),
        (
            json.dumps(_one_block_json(entry=(0, float("inf")))),
            "blocks[0].operators[0][0][0]",
        ),
        (json.dumps(_one_block_json(entry=(10**400, 0))), "blocks[0].operators[0][0][0]"),
        (json.dumps(_one_block_json(entry=(True, 0))), "blocks[0].operators[0][0][0]"),
        (json.dumps(_one_block_json(weight=float("nan"))), "blocks[0].weight"),
        (json.dumps(_one_block_json(weight=float("inf"))), "blocks[0].weight"),
        (json.dumps(_one_block_json(weight=True)), "blocks[0].weight"),
        (json.dumps(_one_block_json(dim=True)), "blocks[0].dim"),
    ],
    ids=[
        "nan-entry",
        "infinite-entry",
        "overflowing-entry",
        "boolean-entry",
        "nan-weight",
        "infinite-weight",
        "boolean-weight",
        "boolean-dim",
    ],
)
def test_nonfinite_and_boolean_input_exits_two(tmp_path, capsys, text, path):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(["support", "--input", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: {path}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", COMMANDS)
def test_tolerance_flags_reach_every_decomposition(
    inputs, capsys, monkeypatch, command
):
    import inspect

    from specscale import spectral
    from specscale.algebra import linear_combination, max_norm

    seen = {"cluster_tol": [], "eig_eq_tol": []}
    frames = []

    def recording(fn, name):
        signature = inspect.signature(fn)
        made_frames = fn is spectral.direction_frames

        def wrapper(*args, **kwargs):
            seen[name].append(signature.bind(*args, **kwargs).arguments.get(name))
            out = fn(*args, **kwargs)
            if made_frames:
                frames.extend(out)
            return out

        return wrapper

    monkeypatch.setattr(
        spectral, "decompose", recording(spectral.decompose, "cluster_tol")
    )
    # every clustering, the slice's batched one included, goes through here
    monkeypatch.setattr(
        spectral, "cluster_starts", recording(spectral.cluster_starts, "cluster_tol")
    )
    # every sweep frame, and its equality band, is made here
    monkeypatch.setattr(
        spectral,
        "direction_frames",
        recording(spectral.direction_frames, "eig_eq_tol"),
    )
    argv = [command, "--input", inputs["reciprocal"], "--samples", "4"]
    code, _, _ = run(argv + ["--cluster-tol", "1e-7", "--eig-eq-tol", "1e-6"], capsys)
    assert code == 0
    assert seen["cluster_tol"] and set(seen["cluster_tol"]) == {1e-7}
    if command != "slice":  # water-filling has no equality band
        assert seen["eig_eq_tol"] and set(seen["eig_eq_tol"]) == {1e-6}
        assert frames
        for frame in frames:
            b_t = linear_combination(frame.optuple, frame.t)
            assert frame.eff_tol == 1e-6 * max(1.0, max_norm(b_t))


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--cluster-tol", "inf"),
        ("--cluster-tol", "-1e-9"),
        ("--eig-eq-tol", "nan"),
        ("--eig-eq-tol", "-inf"),
        ("--iso-radius", "nan"),
        ("--iso-radius", "-0.5"),
        ("--seed", "-1"),
    ],
)
def test_tolerance_flags_need_finite_nonnegative_values(inputs, capsys, flag, value):
    argv = ["center", "--input", inputs["commuting"], "--samples", "0"]
    code, out, err = run(argv + [f"{flag}={value}"], capsys)
    assert code == 1
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("value", ["-1", "-3", "2.5"])
def test_samples_needs_an_integer_at_least_zero(inputs, capsys, command, value):
    argv = [command, "--input", inputs["reciprocal"], f"--samples={value}"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("samples", ["0", "8"])
@pytest.mark.parametrize("name", ["commuting", "blockpair"])
def test_faces_samples_each_cone_once(inputs, capsys, monkeypatch, name, samples):
    # a sweep face's chain is the face itself, read off the cone the face
    # pass sampled, so no cone is sampled again; every cone, one face's or
    # many faces' together, goes through the one cone sampler, which counts
    # each face it samples
    from specscale import faces
    from specscale.algebra import load_tuple

    ambient = load_tuple(inputs[name])
    original = faces._sample_cones
    ambient_calls = []

    def counting(optuple, intervals, *args, **kwargs):
        intervals = list(intervals)
        if optuple.algebra.dims == ambient.algebra.dims and all(
            np.allclose(x, y)
            for a, b in zip(optuple.operators, ambient.operators)
            for x, y in zip(a.blocks, b.blocks)
        ):
            ambient_calls.extend(intervals)
        return original(optuple, intervals, *args, **kwargs)

    monkeypatch.setattr(faces, "_sample_cones", counting)
    code, out, err = run(
        ["faces", "--input", inputs[name], "--samples", samples], capsys
    )
    assert code == 0, err
    with_cone = [r for r in json.loads(out) if "degree" in r]
    assert with_cone and len(ambient_calls) == len(with_cone)


def _counting_direction_frames(monkeypatch):
    """Record ``(tuple, bytes of t)`` of every direction decomposed, through
    ``direction_frames``, which every decomposition of a direction calls."""
    from specscale import spectral

    calls = []
    direction_frames = spectral.direction_frames

    def counting(optuple, ts, *args):
        ts = list(ts)
        calls.extend((optuple, np.asarray(t, dtype=float).tobytes()) for t in ts)
        return direction_frames(optuple, ts, *args)

    monkeypatch.setattr(spectral, "direction_frames", counting)
    return calls


def test_corners_decomposes_each_axis_once(inputs, capsys, monkeypatch):
    # the four axis directions of the sweep are every candidate of every
    # cone and every gap direction; each used to be decomposed per face
    calls = _counting_direction_frames(monkeypatch)
    code, _, err = run(
        ["corners", "--input", inputs["commuting"], "--samples", "0"], capsys
    )
    assert code == 0, err
    assert len(calls) == 4


@pytest.mark.parametrize("samples", ["0", "8"])
@pytest.mark.parametrize("command", ["faces", "corners", "center"])
@pytest.mark.parametrize("name", ["reciprocal", "pauli", "commuting", "blockpair"])
def test_face_commands_decompose_each_direction_once(
    inputs, capsys, monkeypatch, name, command, samples
):
    # one frame cache per run: the ambient tuple (the sweep's, the first
    # decomposed) never decomposes the same t twice
    calls = _counting_direction_frames(monkeypatch)
    code, _, err = run(
        [command, "--input", inputs[name], "--samples", samples], capsys
    )
    assert code == 0, err
    ambient = [t for optuple, t in calls if optuple is calls[0][0]]
    assert ambient and len(ambient) == len(set(ambient))


@pytest.mark.parametrize("command", ["faces", "corners", "center"])
@pytest.mark.parametrize("name", ["pauli", "blockpair"])
def test_face_commands_expand_the_sample_once(
    inputs, capsys, monkeypatch, name, command
):
    # the cones are sampled on the direction parts the sweep expanded
    from specscale import scale

    calls = []
    expand = scale._cloud_t_directions

    def counting(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(scale, "_cloud_t_directions", counting)
    code, _, err = run([command, "--input", inputs[name], "--samples", "8"], capsys)
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["faces", "corners", "center"])
def test_face_commands_on_a_dense_block_decompose_only_the_sweep(
    tmp_path, capsys, monkeypatch, command
):
    # every proper face of a generic tuple has a one-ray cone (tested on
    # the face's own sweep ray) or the whole space (tested on the axes),
    # and no sweep face is exposed again for its chain, so the six axis
    # directions of the sweep are all the run decomposes
    from test_golden import dense_block

    from specscale.scale import _cloud_t_directions

    path = tmp_path / "dense.json"
    save_tuple(dense_block(16, 3, 3), path)
    calls = _counting_direction_frames(monkeypatch)
    code, _, err = run([command, "--input", str(path), "--samples", "0"], capsys)
    assert code == 0, err
    axes = [t.tobytes() for t in _cloud_t_directions(3, 0)]
    assert len(axes) == 6
    assert sorted(t for _, t in calls) == sorted(axes)


@pytest.mark.parametrize("command", ["faces", "corners", "center", "abelian"])
@pytest.mark.parametrize("samples", ["0", "8"])
def test_face_commands_build_no_projection(
    tmp_path, capsys, monkeypatch, command, samples
):
    # every face of the pass and every cloud projection is a leading range
    # of a frame: the dedup and the cone test read products of frames, the
    # centrality checks its commutator table, and no d x d projection is built
    from test_golden import dense_block

    from specscale.spectral import SpectralFrame

    def refuse(self, coeffs):
        raise AssertionError("built a projection")

    tuples = {
        "reciprocal": fixtures.reciprocal_diagonal(8),
        "two_point": fixtures.two_point(),
        "pauli": fixtures.pauli_pair(),
        "commuting": fixtures.commuting_diagonals(),
        "blockpair": fixtures.block_with_scalars(),
        "dense16": dense_block(16, 2, 16),
    }
    monkeypatch.setattr(SpectralFrame, "combination", refuse)
    for name, optuple in tuples.items():
        path = tmp_path / f"{name}.json"
        save_tuple(optuple, path)
        argv = [command, "--input", str(path), "--samples", samples]
        code, _, err = run(argv, capsys)
        assert code == 0, (name, err)


def test_faces_exits_four_when_a_sweep_pair_is_not_in_its_cone(
    inputs, capsys, monkeypatch
):
    from dataclasses import replace

    from specscale import faces

    original = faces._sample_cones

    def memberless(*args, **kwargs):
        return [replace(c, groups=()) for c in original(*args, **kwargs)]

    monkeypatch.setattr(faces, "_sample_cones", memberless)
    code, out, err = run(
        ["faces", "--input", inputs["commuting"], "--samples", "0"], capsys
    )
    assert code == 4
    assert out == ""
    assert "invariant violation" in err and "not a member" in err


@pytest.mark.parametrize("samples", ["0", "8", "64"])
def test_faces_on_pauli_reaches_the_apex(inputs, capsys, samples):
    # the apex psi(0) has a normal cone symmetric about the trace axis, so
    # its summed normal has no t part; its chain is the apex itself
    code, out, err = run(
        ["faces", "--input", inputs["pauli"], "--samples", samples], capsys
    )
    assert code == 0, err
    reports = json.loads(out)
    apex = [r for r in reports if r["trace_upper"] == 0.0]
    assert apex and all(r["chain_length"] == 1 for r in apex)
    assert all("chain_length" in r for r in reports)  # every face is proper


def test_json_format_is_not_an_option(inputs, capsys):
    code, _, err = run(
        ["support", "--input", inputs["pauli"], "--format", "json"], capsys
    )
    assert code == 1
    assert "invalid choice" in err


def test_corners_skips_spreads_inside_the_scaled_band(tmp_path, capsys):
    # ||b|| = 100 scales the equality band to 1e-6; cut levels at 1 and
    # 1 + 1.5e-6 spread by less than twice the band, which is no gap, and
    # used to reach eigengap_of with s1 + band > s2 - band (exit 1)
    values = (1.0, 1.0 + 1.5e-6, 100.0)
    blocks = [
        {"weight": 1.0 / 3.0, "dim": 1, "operators": [[[[v, 0.0]]]]} for v in values
    ]
    path = tmp_path / "close.json"
    path.write_text(json.dumps({"blocks": blocks}))
    code, out, err = run(["corners", "--input", str(path), "--samples", "0"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert list(payload) == ["gaps", "sharp_faces"]


@pytest.mark.parametrize("samples", ["0", "8"])
@pytest.mark.parametrize("name", ["commuting", "blockpair", "reciprocal"])
def test_center_fills_its_cloud_from_the_face_sweep(
    inputs, capsys, monkeypatch, name, samples
):
    # the face pass's frames hold every interval the cloud reads, so center
    # sweeps its directions once, to the same cloud extreme_point_cloud builds
    from specscale import scale
    from specscale.algebra import load_tuple
    from specscale.structure import isolated_extremes_to_center

    optuple = load_tuple(inputs[name])
    cloud = scale.extreme_point_cloud(optuple, int(samples))
    want = [
        [float(x) + 0.0 for x in r.point]
        for r in isolated_extremes_to_center(optuple, cloud)
    ]

    def unused(*args, **kwargs):
        raise AssertionError("center reads its cloud off the face sweep")

    monkeypatch.setattr(scale, "extreme_point_cloud", unused)
    code, out, _ = run(
        ["center", "--input", inputs[name], "--samples", samples], capsys
    )
    assert code == 0
    got = [entry["point"] for entry in json.loads(out)["isolated_extreme_points"]]
    assert got == want and want


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(argv, capsys, monkeypatch):
    """``run(argv)`` with ``main`` parsing on a newly built parser."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        return run(argv, capsys)


def test_reused_parser_carries_no_state(inputs, capsys, monkeypatch):
    pauli = inputs["pauli"]
    handled = {}

    def recording(handler):
        def record(optuple, args):
            handled["args"] = args
            handler(optuple, args)

        return record

    for name in ("support", "extremes", "slice"):
        monkeypatch.setitem(cli.HANDLERS, name, recording(cli.HANDLERS[name]))
    sequence = [
        ["support", "--input", pauli, "--samples", "-1"],
        ["--help"],
        [],
        ["frobnicate", "--input", pauli],
        ["extremes", "--input", pauli, "--samples", "8", "--format", "obj"],
        ["extremes", "--input", pauli, "--samples", "8"],
        ["slice", "--input", pauli, "--samples", "8", "--level", "0.25"],
        ["slice", "--input", pauli, "--samples", "8"],
        ["support", "--input", pauli, "--samples", "3"],
        ["support", "--input", pauli],
    ]
    results = []
    reused_args = []
    cli._parser()
    for argv in sequence:
        expected = _fresh(argv, capsys, monkeypatch)
        handled.clear()
        results.append(run(argv, capsys))
        assert results[-1] == expected, argv
        reused_args.append(handled.get("args"))
    assert [code for code, _, _ in results] == [1, 0, 1, 1, 0, 0, 0, 0, 0, 0]
    # no default leaks from the call before: extremes writes CSV again,
    # slice cuts at 0.5 and support sweeps 256 directions
    assert (reused_args[4].format, reused_args[5].format) == ("obj", None)
    assert results[5][1].startswith("x0,x1,x2,proj_id,proj_trace\n")
    assert (reused_args[6].level, reused_args[7].level) == (0.25, 0.5)
    assert (reused_args[8].samples, reused_args[9].samples) == (3, 256)


_COUNT_IMPORT_BUILDS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import specscale.cli
print(built)
"""


def test_main_builds_its_parser_once(inputs, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli._parser.cache_clear()
    argvs = [
        ["support", "--input", inputs["pauli"], "--samples", "0"],
        ["slice", "--input", inputs["reciprocal"], "--samples", "0"],
        ["support", "--input", inputs["pauli"], "--samples", "-1"],
        ["--help"],
    ]
    counts = []
    for k in range(20):
        run(argvs[k % len(argvs)], capsys)
        counts.append(len(built))
    # one top-level parser and one per command, all on the first call
    assert counts == [1 + len(COMMANDS)] * 20
    # a fresh interpreter, so no parser another test built can count
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_IMPORT_BUILDS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_help_wraps_at_print_time(capsys, monkeypatch):
    cli._parser()
    helps = {}
    for columns in (60, 150):
        monkeypatch.setenv("COLUMNS", str(columns))
        helps[columns] = run(["support", "--help"], capsys)
        assert helps[columns] == _fresh(["support", "--help"], capsys, monkeypatch)
    assert helps[60][0] == 0
    assert helps[60][1].splitlines() != helps[150][1].splitlines()


def test_one_shot_process_matches_main(inputs, capsys):
    argv = ["support", "--input", inputs["pauli"], "--samples", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "specscale.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    code, out, _ = run(argv, capsys)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert code == 0 and out
