"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Three cases: the checker rejects a perturbed ``support`` alpha, the
checker rejects output that changes between passes, and the tracing
wrappers are all gone after a traced pass, so untraced timings run
unpatched code.  Exits 0 when all three hold.
"""

from __future__ import annotations

import sys

import run  # pins BLAS threads before numpy is imported

import check
import inputs
import tracing
import workloads

SEED = 0


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def _support_output(runner, op):
    _, rc, stdout = runner.call(op)
    if rc != 0:
        raise AssertionError(f"{op.label} exited {rc}")
    return stdout


def _perturb_alpha(text, delta):
    """Add ``delta`` to the alpha column of the first data row."""
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    col = header.index("alpha")
    cells = lines[1].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


def case_perturbed_alpha(runner, tuples):
    op = workloads.Op("support", "pauli_pair", 2)
    good = _support_output(runner, op)
    fresh = check.Verifier(tuples, SEED)
    expect(fresh.verify(0, op, 0, good) == [], "unperturbed output must pass")
    bad = _perturb_alpha(good, 1e-6)
    problems = check.Verifier(tuples, SEED).verify(0, op, 0, bad)
    expect(problems and "alpha" in problems[0], problems)


def case_nondeterministic(runner, tuples):
    op = workloads.Op("support", "pauli_pair", 2)
    good = _support_output(runner, op)
    # Changes only the last of 17 digits: the oracle accepts it, the
    # byte comparison with the earlier pass must not.
    drifted = _perturb_alpha(good, 1e-15)
    expect(drifted != good, "perturbation did not change the bytes")
    verifier = check.Verifier(tuples, SEED)
    expect(verifier.verify(0, op, 0, good) == [], "first pass must pass")
    expect(
        check.Verifier(tuples, SEED).verify(0, op, 0, drifted) == [],
        "the drifted output must pass the oracle on its own",
    )
    problems = verifier.verify(0, op, 0, drifted)
    expect(problems and "differ" in problems[0], problems)


def _namespace_snapshot(tracer):
    return {(id(o), k): v for o in tracer.owners() for k, v in list(vars(o).items())}


def case_wrappers_removed(runner, tuples):
    tracer = tracing.Tracer()
    before = _namespace_snapshot(tracer)
    tracer.install()
    try:
        expect(tracer.patched_locations(), "install patched nothing")
        for op in workloads.warmup_ops():
            runner.call(op)
    finally:
        tracer.remove()
    stats, _ = tracer.layer_stats()
    expect(stats["cli.main"][0] == len(workloads.warmup_ops()), stats["cli.main"])
    expect(tracer.patched_locations() == [], tracer.patched_locations())
    after = _namespace_snapshot(tracer)
    changed = [key for key, value in before.items() if after.get(key) is not value]
    expect(not changed, f"{len(changed)} attributes differ after remove()")


def main():
    cli = run.import_specscale()
    tuples = inputs.fixture_tuples()
    inputs.write_inputs(tuples, run.input_dir("fixtures", SEED))
    runner = run.Runner(cli, "fixtures", SEED)
    failed = 0
    for case in (case_perturbed_alpha, case_nondeterministic, case_wrappers_removed):
        try:
            case(runner, tuples)
            print(f"PASS {case.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {case.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
