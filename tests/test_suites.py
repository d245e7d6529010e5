import hashlib
import json

import pytest

from ncworlds import iterant as it, quotient as qt, skewdiff as sd
from ncworlds.ncpoly import NcPoly
from ncworlds.skewdiff import Sequence, Vec3
from ncworlds.suites import (Options, SUITE_NAMES, SuiteReport, bell_numbers, expect,
                             run_suite)


def test_every_named_suite_passes():
    options = Options(seed=3, trials=20)
    for name in SUITE_NAMES:
        if name == "all":
            continue
        report, = run_suite(name, options)
        failed = [c.id for c in report.checks if c.status != "pass"]
        assert report.passed, f"{name}: {failed}"


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("spectral")


def test_all_runs_everything():
    reports = run_suite("all", Options(seed=1, trials=10))
    assert [r.suite for r in reports] == [n for n in SUITE_NAMES if n != "all"]
    assert all(r.passed for r in reports)


def test_report_json_shape():
    report, = run_suite("schroedinger", Options(seed=0))
    obj = report.to_json_obj()
    assert obj["suite"] == "schroedinger"
    assert obj["status"] == "pass"
    for check in obj["checks"]:
        assert set(check) == {"id", "statement", "status", "residual"}


def test_bell_triangle():
    assert bell_numbers(7) == [1, 1, 2, 5, 15, 52, 203, 877]


# -- failing runs keep their bytes ----------------------------------------------

def _swapped_matrix_product(monkeypatch):
    product = it.Matrix.__mul__
    monkeypatch.setattr(it.Matrix, "__mul__", lambda a, b: product(b, a))


def _unsigned_epsilon(monkeypatch):
    epsilon = sd.epsilon
    monkeypatch.setattr(sd, "epsilon", lambda i, j, k: abs(epsilon(i, j, k)))


def _reduce_is_identity(monkeypatch):
    monkeypatch.setattr(qt, "reduce_poly", lambda e, system, max_steps=None: e)


# sha256 of the sorted-key JSON of every report of `verify all --seed 1`
# under each mutant, recorded when checks still returned (ok, text) pairs:
# a failing run keeps its bytes, random draws included
@pytest.mark.parametrize("mutate, digest", [
    (_swapped_matrix_product, "cfb903761b7295341e2257e763bb000e83bc5605021c1f1dd65132bc103ae7e9"),
    (_unsigned_epsilon, "abcbc00c49ac595a37e3d6abfe37a1df463b633612b1b1d78160530db6144ba8"),
    (_reduce_is_identity, "66bfc096a1c00437a5f05cf963d630c0cd002bd7fd56b1a54db58974a91e7f12"),
], ids=["matrix-product-swapped", "epsilon-unsigned", "reduce-identity"])
def test_mutant_runs_fail_with_pinned_bytes(monkeypatch, mutate, digest):
    mutate(monkeypatch)
    reports = run_suite("all", Options(seed=1))
    assert not all(r.passed for r in reports)
    text = json.dumps([r.to_json_obj() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- the check protocol ----------------------------------------------------------

def _run(fn):
    report = SuiteReport("probe")
    return report.check("probe", "a probe check")(fn)


def test_first_nonzero_residual_is_reported():
    def check():
        yield NcPoly.zero()
        yield NcPoly.gen("A")
        yield NcPoly.gen("B")

    result = _run(check)
    assert (result.status, result.residual) == ("fail", "A")


def test_vec3_reports_its_nonzero_component():
    zero = Sequence([0, 0, 0])
    vec = Vec3.of([zero, Sequence([0, 2, 0]), zero])
    result = _run(lambda: [vec])
    assert (result.status, result.residual) == ("fail", "(0, 2, 0)@0")


def test_expect_detail_is_the_residual():
    assert _run(lambda: expect(False, "d")).residual == "d"
    assert _run(lambda: expect(False)).residual == "mismatch"
    assert _run(lambda: expect(True)).status == "pass"


def test_error_after_a_nonzero_residual_is_reported():
    def check():
        yield NcPoly.gen("A")
        raise ValueError("boom")

    result = _run(check)
    assert (result.status, result.residual) == ("fail", "error: boom")


def test_checks_are_recorded_in_definition_order():
    report = SuiteReport("probe")
    for cid in ("c", "a", "b"):
        report.check(cid, "passes")(lambda: [NcPoly.zero()])
    assert [c.id for c in report.checks] == ["c", "a", "b"]
    assert report.passed
