"""The benchmark workloads: seeded inputs and the fixed list of CLI
invocations that makes up one pass.

Why these three (each planned optimisation has one workload where its
mechanism does most of the work and one where it does almost none):

* ``fixtures``: the README tuples, d <= 4, so LAPACK is negligible and
  the time goes to the face calculus (normal cones, the projection-order
  test, minimal exposed chains, compressions).
* ``dense_block``: one generic dense block, d in {16, 32, 64}; the time
  goes to ``decompose`` and interval materialisation, O(d^3) per
  direction.  No face-calculus command runs here.
* ``many_blocks``: up to 128 one-dimensional blocks with small-integer
  entries; thousands of tiny per-block ``eigh`` calls and Python loops,
  with eigenvalues repeated across blocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import inputs

WORKLOADS = ("fixtures", "dense_block", "many_blocks")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``specscale <command> --input <tuple> ...``."""

    command: str  # CLI subcommand, or "obj" for ``extremes --format obj``
    tuple_name: str
    samples: int
    extra: tuple = ()

    @property
    def label(self):
        return f"{self.command}:{self.tuple_name}:s{self.samples}"

    def argv(self, path):
        cmd = "extremes" if self.command == "obj" else self.command
        out = [cmd, "--input", path, "--samples", str(self.samples)]
        if self.command == "obj":
            out += ["--format", "obj"]
        return out + list(self.extra)


# ``extremes`` on the fixtures runs at 32 directions, the smallest sample
# at which commuting_diagonals reaches all 14 extreme points; ``slice`` at
# 256 so that slice_s is long enough to time on tuples this small.
FIXTURE_SAMPLES = {"extremes": 32, "slice": 256}
FIXTURE_DEFAULT_SAMPLES = 0
FIXTURE_COMMANDS = (
    "support", "extremes", "faces", "slice", "corners", "center", "abelian",
)
TWO_OPERATOR_FIXTURES = ("pauli_pair", "commuting_diagonals", "block_with_scalars")

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "known_failures.json")


def known_failures():
    """Labels of operations a workload should contain but that fail today.

    They are attempted after every pass, outside the timed list, because
    a workload must not contain an operation that fails.
    """
    with open(LEDGER) as fh:
        return frozenset(json.load(fh)["known_failures"])


def _fixtures(seed):
    tuples = inputs.fixture_tuples()
    ops = []
    for name in tuples:
        for cmd in FIXTURE_COMMANDS:
            ops.append(Op(cmd, name, FIXTURE_SAMPLES.get(cmd, FIXTURE_DEFAULT_SAMPLES)))
        if name in TWO_OPERATOR_FIXTURES:
            ops.append(
                Op("obj", name, FIXTURE_DEFAULT_SAMPLES, ("--seed", str(seed)))
            )
    return tuples, ops


def _dense_block(seed):
    rng = np.random.default_rng([seed, 1])
    tuples = {}
    for d, n in ((16, 2), (16, 3), (32, 2), (32, 3), (64, 2)):
        tuples[f"dense_d{d}_n{n}"] = inputs.dense_block_tuple(rng, d, n)
    for n in (2, 3):
        tuples[f"noncomm_d4_n{n}"] = inputs.dense_block_tuple(rng, 4, n)
    ops = [
        Op("support", "dense_d16_n2", 0),
        Op("support", "dense_d16_n3", 0),
        Op("support", "dense_d32_n2", 0),
        Op("extremes", "dense_d16_n3", 0),
        Op("extremes", "dense_d32_n3", 0),
        Op("extremes", "dense_d64_n2", 0),
        Op("slice", "dense_d16_n2", 32),
        Op("slice", "dense_d32_n3", 32),
        Op("slice", "dense_d64_n2", 32),
        # abelian only at d = 4: generated_algebra_basis grows steeply with
        # d (abelian_growth in known_failures.json).
        Op("abelian", "noncomm_d4_n2", 0),
        Op("abelian", "noncomm_d4_n3", 0),
    ]
    return tuples, ops


def _many_blocks(seed):
    rng = np.random.default_rng([seed, 2])
    tuples = {}
    for m, n in ((64, 1), (64, 2), (128, 1), (128, 2)):
        tuples[f"blocks_m{m}_n{n}"] = inputs.many_blocks_tuple(rng, m, n)
    ops = [
        Op("support", "blocks_m64_n2", 0),
        Op("support", "blocks_m128_n1", 0),
        Op("extremes", "blocks_m64_n2", 0),
        Op("extremes", "blocks_m128_n1", 0),
        Op("extremes", "blocks_m128_n2", 0),
        Op("slice", "blocks_m64_n1", 32),
        # 9 angles: apart from the first axis, no integer vector is
        # orthogonal to any of them, so the cluster count is the same for
        # every seed.
        Op("slice", "blocks_m128_n2", 9),
    ]
    return tuples, ops


def build(workload, seed):
    """``(tuples, ops, known)``: the inputs by name, one pass as a list of
    Ops, and the known failures, attempted outside the pass."""
    builders = {
        "fixtures": _fixtures,
        "dense_block": _dense_block,
        "many_blocks": _many_blocks,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    tuples, ops = builders[workload](seed)
    ledger = known_failures()
    known = [op for op in ops if op.label in ledger]
    return tuples, [op for op in ops if op.label not in ledger], known


def warmup_ops():
    """One cheap call per command on the smallest fixtures, run untimed
    before the first pass so lazy imports and first-call set-up are paid
    outside the measurement."""
    ops = [Op(cmd, "two_point", 2) for cmd in FIXTURE_COMMANDS]
    ops.append(Op("obj", "pauli_pair", 2))
    return ops
