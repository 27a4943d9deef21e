"""Acceptance criteria A1..A12, one test per criterion.

Each test prints its own PASS/FAIL line (run pytest -s to see them inline)
and asserts the underlying checks at exact tolerance.  The same checks back
the CLI's `verify` subcommand.
"""

import hashlib
from types import SimpleNamespace

import pytest

from affine_crystals import golden, iso, suites
from affine_crystals.paths import Path
from affine_crystals.suites import suite_bridge, suite_example
from oracles import profiled_calls

SEED = 0
_cache = {}
# sha256 of `verify all` stdout (seed 0)
VERIFY_ALL_SHA256 = "a193232a436648ac12115a8f8e109b60ecc47554d54babb916177177c668049a"


def _suite(name):
    # the CLI's suite table, so the tests run what `verify` runs
    if name not in _cache:
        _cache[name] = suites.SUITES[name](SEED)
    return _cache[name]


def _criterion(suite_name, prefix):
    # runtime budgets (A1, A2 < 5s; A6 < 60s) are asserted inside the suites
    checks = [c for c in _suite(suite_name) if c.name.startswith(prefix)]
    assert checks, f"no check named {prefix}*"
    for c in checks:
        print(c.line())
        assert c.ok, c.detail


def test_A1_example_paths():
    _criterion("example", "A1")


def test_A2_walls_and_matrix_units():
    _criterion("example", "A2")


def test_A3_commutant_dimension_29():
    _criterion("example", "A3")


def test_A4_kernel_tables_three_seeds():
    _criterion("example", "A4")


def test_A5_kernel_reconstruction_maps():
    _criterion("example", "A5")


def test_A6_pair_merge_isomorphism_grid():
    _criterion("xi", "A6")


def test_A7_perfectness_grid():
    _criterion("perfect", "A7")


def test_A8_ground_state_identities():
    _criterion("axioms", "A8")


def test_A9_crystal_axioms_on_balls():
    _criterion("axioms", "A9")


def test_A10_cross_model_bridge():
    _criterion("bridge", "A10")


def test_A11_peeling_and_kernel_shift():
    _criterion("bridge", "A11")


def test_A12_stability():
    _criterion("bridge", "A12")


def _corrupt(entries, k, value):
    return [*entries[:k], value, *entries[k + 1:]]


@pytest.mark.parametrize("check, name, value, witness", [
    ("A1", "P1_FACTORS", _corrupt(golden.P1_FACTORS, 0, (9, 9, 9)),
     "B1 factors [(1, 1, 1), (0, 0, 3), (0, 2, 1), (0, 1, 2), (0, 2, 1)] != golden "
     "[(9, 9, 9), (0, 0, 3), (0, 2, 1), (0, 1, 2), (0, 2, 1)]"),
    ("A1", "AD_RENDERS", _corrupt(golden.AD_RENDERS, 3, "rows: [3]"),
     f"Ad renders {golden.AD_RENDERS} != golden {_corrupt(golden.AD_RENDERS, 3, 'rows: [3]')}"),
    ("A2", "WALLS_PN", {**golden.WALLS_PN, "heights": ((3, 1, 1), (3, 1), (3, 2, 1, 1))},
     "Pn heights ((3, 1, 1), (3, 1), (3, 2, 1, 1, 1)) != golden "
     "((3, 1, 1), (3, 1), (3, 2, 1, 1))"),
    ("A2", "X_UNITS", golden.X_UNITS - {(0, 0, 0)} | {(0, 0, 1)},
     f"x units {sorted(('x', *u) for u in golden.X_UNITS)} != golden "
     f"{sorted(('x', *u) for u in golden.X_UNITS - {(0, 0, 0)} | {(0, 0, 1)})}"),
])
def test_A1_A2_name_the_part_that_differs_from_golden(monkeypatch, check, name, value, witness):
    # one corrupted golden entry: its check fails with the part it compares as
    # the witness, and every other check of the example still passes
    monkeypatch.setattr(golden, name, value)
    checks = suite_example(SEED)
    failed = [c for c in checks if not c.ok]
    assert [c.name[:2] for c in failed] == [check]
    assert failed[0].detail == witness


@pytest.mark.parametrize("name", ["b1_path_from_kernels", "bn_path_from_kernels",
                                  "adj_path_from_kernels"])
def test_A5_compares_whole_paths(monkeypatch, name):
    # a reconstruction that differs from the direct path only at position 6, past
    # the worked example's deviations, fails A5 and no other check
    build = getattr(suites, name)

    def off_at_6(kt, lam):
        p = build(kt, lam)
        far = next(filter(None, map(p.factor(6).f, range(p.n + 1))))
        return Path(p.lam, p.kind, [*map(p.factor, range(6)), far])

    monkeypatch.setattr(suites, name, off_at_6)
    assert [c.name[:2] for c in suite_example(SEED) if not c.ok] == ["A5"]


def test_A1_A2_report_the_time_only_over_budget(monkeypatch):
    clock = iter([0.0, 6.02])  # the pipeline run took 6.02 s, over the 5 s budget
    monkeypatch.setattr(suites, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    checks = {c.name[:2]: c for c in suite_example(SEED)}
    assert [checks[k].line().split(": ", 1)[1] for k in ("A1", "A2", "A3")] == [
        "FAIL (elapsed 6.02s)", "FAIL (elapsed 6.02s)", "PASS"]


def test_A12_fails_on_the_first_unstable_framing(monkeypatch):
    # an unstable framing also fails the pipeline, so A10 stops at the same
    # case; A12 must still report it
    monkeypatch.setattr(iso, "_stable_once", lambda *args: False)
    a10, a12 = (next(c for c in suite_bridge(SEED) if c.name.startswith(key))
                for key in ("A10", "A12"))
    assert not a10.ok and not a12.ok
    assert a12.detail.startswith("generic framing unstable for ")
    case = a12.detail.removeprefix("generic framing unstable for ")
    assert a10.detail == f"pipeline fails for {case}: generic framing failed the stability criterion"


def test_A12_sees_unstable_framings_after_the_first_A10_witness(monkeypatch):
    # case 1 fails the pipeline, and only case 50 is unstable: A10 reports
    # case 1, and A12 must still run the other 49 and report case 50
    runs = []
    real = suites.run_pipeline

    def wrapped(lam, word, seed=0):
        rep = real(lam, word, seed=seed)
        runs.append((lam, word))
        if len(runs) == 1:
            rep.ok = False
            rep.mismatches.append("forced mismatch")
        if len(runs) == 50:
            rep.stable = False
        return rep

    monkeypatch.setattr(suites, "run_pipeline", wrapped)
    checks = suite_bridge(SEED)
    a10, a12 = (next(c for c in checks if c.name.startswith(key)) for key in ("A10", "A12"))
    assert len(runs) == 50
    (lam, word), (lam50, word50) = runs[0], runs[-1]
    assert a10.detail == f"pipeline fails for {lam} word {word}: forced mismatch"
    assert a12.detail == f"generic framing unstable for {lam50} word {word50}"


def test_verify_all_output_is_pinned():
    # cmd_verify's stdout for `verify all`, rebuilt from the cached suites
    checks = [c for name in suites.SUITES for c in _suite(name)]
    passed = sum(c.ok for c in checks)
    text = "".join(f"{c.line()}\n" for c in checks) + f"{passed}/{len(checks)} checks passed\n"
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_extra_example_checks():
    for c in [c for c in _suite("example") if c.name.startswith("extra")]:
        print(c.line())
        assert c.ok, c.detail


def test_worked_example_is_built_once():
    # the example reads its paths, walls and wall maps off one pipeline run,
    # and the peeling check runs the pipeline once more on the rest word
    _, calls = profiled_calls(suite_example, SEED)
    assert calls["iso", "run_pipeline"] == 2
    assert calls["walls", "path_to_walls"] == 4
    assert calls["quiver", "wall_graded_map"] == 4
    assert calls["quiver", "commutant_basis"] == 2  # A4 samples from the report's basis
    # A4 reads its first seed's table off the report: 2 pipeline runs + seeds 1 and 2
    assert calls["quiver", "generic_kernel_table"] == 4
