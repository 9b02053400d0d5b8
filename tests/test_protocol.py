import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from consensus_lab import (
    AffinePiece,
    CallablePiece,
    ClassAFunction,
    epsilon_separation,
    preset,
    unit_jump,
    validate_class_a,
)
from consensus_lab.protocol import from_config

INF = math.inf
UJ = unit_jump()  # immutable; shared by the property tests


def affine(lo, hi, slope, intercept):
    return AffinePiece(lo, hi, slope, intercept)


def test_unit_jump_is_admissible(uj):
    assert validate_class_a(uj) is None
    assert len(uj.breakpoints) == 1
    bp = uj.breakpoints[0]
    assert (bp.x, bp.left, bp.right) == (0.0, 0.0, 1.0)


def test_identity_is_admissible():
    assert validate_class_a(preset("identity")) is None


def test_downward_jump_violates_clause_3():
    g = ClassAFunction([affine(-INF, 0, 1, 0), affine(0, INF, 1, -1)])
    v = validate_class_a(g)
    assert v is not None and v.clause == 3
    assert "downward" in v.message


def test_nonincreasing_affine_violates_clause_2():
    g = ClassAFunction([affine(-INF, 0, -1, 0), affine(0, INF, 1, 1)])
    v = validate_class_a(g)
    assert v is not None and v.clause == 2


def test_nonmonotone_callable_violates_clause_2():
    g = ClassAFunction([
        CallablePiece(-INF, 0, math.sin, hi_limit=0.0),
        affine(0, INF, 1, 1),
    ])
    v = validate_class_a(g)
    assert v is not None and v.clause == 2


def test_structural_gaps_rejected():
    with pytest.raises(ValueError, match="contiguous"):
        ClassAFunction([affine(-INF, 0, 1, 0), affine(1, INF, 1, 0)])
    with pytest.raises(ValueError, match="cover"):
        ClassAFunction([affine(0, INF, 1, 0)])


def test_eval_interval_on_branch(uj):
    iv = uj.eval_interval(1.0)
    assert (iv.lo, iv.hi) == (2.0, 2.0)
    iv = uj.eval_interval(-2.5)
    assert (iv.lo, iv.hi) == (-2.5, -2.5)


def test_eval_interval_at_breakpoint(uj):
    iv = uj.eval_interval(0.0)
    assert (iv.lo, iv.hi) == (0.0, 1.0)
    assert 0.5 in iv and 1.0 in iv and 1.0001 not in iv


def test_value_midpoint_convention_at_breakpoint(uj):
    assert uj.value(0.0) == pytest.approx(0.5)


@settings(max_examples=200)
@given(st.floats(-50, 50))
def test_eval_interval_ordering(x):
    iv = UJ.eval_interval(x)
    assert iv.lo <= iv.hi
    assert (iv.lo < iv.hi) == (x == 0.0)


def test_strict_increase_between_breakpoints(uj):
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = sorted(rng.uniform(-10, 10, size=2))
        if x == y or (x < 0 <= y):
            continue
        assert uj.value(x) < uj.value(y)


def test_epsilon_separation_unit_jump(uj):
    est = epsilon_separation(uj, -10, 10)
    assert est.value == 1.0 and est.exact


def test_epsilon_separation_half_slope():
    g = ClassAFunction([affine(-INF, INF, 0.5, 0.0)])
    est = epsilon_separation(g, -3, 3)
    assert est.value == 0.5 and est.exact


def test_epsilon_separation_cubic_vanishes():
    g = ClassAFunction([CallablePiece(-INF, INF, lambda s: s**3)])
    assert validate_class_a(g) is None
    est = epsilon_separation(g, -1, 1)
    assert not est.exact
    assert 0 <= est.value < 1e-6


def test_epsilon_separation_restricted_domain(uj):
    # only the upper branch intersects the domain
    est = epsilon_separation(uj, 1, 2)
    assert est.value == 1.0


@settings(max_examples=300)
@given(
    st.floats(-20, 20), st.floats(-20, 20),
    st.sampled_from(["lo", "hi"]), st.sampled_from(["lo", "hi"]),
)
def test_monotone_selection_property(alpha, beta, side_a, side_b):
    # any selections from the set-valued evaluation respect the separation ratio
    if alpha == beta:
        return
    eps = epsilon_separation(UJ, min(alpha, beta) - 1, max(alpha, beta) + 1).value
    va = getattr(UJ.eval_interval(alpha), side_a)
    vb = getattr(UJ.eval_interval(beta), side_b)
    if alpha > beta:
        assert va - vb >= eps * (alpha - beta) - 1e-12
    else:
        assert vb - va >= eps * (beta - alpha) - 1e-12


def test_definite_integral_against_quadrature(uj):
    def raw(s):  # hand-coded branches, independent of the library path
        return s if s < 0 else s + 1.0

    for a, b in [(-1, 1), (0, 2), (-3, -1), (1, -2), (-0.5, 0.5)]:
        expected = quad(raw, a, b, points=[0.0] if min(a, b) < 0 < max(a, b) else None)[0]
        assert uj.definite_integral(a, b) == pytest.approx(expected, abs=1e-9)


def test_definite_integral_callable_piece():
    g = ClassAFunction([
        CallablePiece(-INF, 0, lambda s: s**3, hi_limit=0.0),
        affine(0, INF, 1, 1),
    ])
    assert g.definite_integral(-1, 0) == pytest.approx(-0.25, abs=1e-9)


def test_from_config_pieces_match_preset(uj):
    g = from_config({
        "pieces": [
            {"interval": ["-inf", 0], "kind": "affine", "slope": 1, "intercept": 0},
            {"interval": [0, "inf"], "kind": "affine", "slope": 1, "intercept": 1},
        ],
        "breakpoints": [{"x": 0, "left": 0, "right": 1}],
    })
    for x in (-2.0, -0.1, 0.3, 5.0):
        assert g.value(x) == uj.value(x)
    assert g.breakpoints == uj.breakpoints


def test_from_config_preset():
    assert from_config({"preset": "unit-jump"}).name == "unit-jump"
    with pytest.raises(ValueError, match="unknown preset"):
        from_config({"preset": "nope"})


def test_from_config_rejects_bad_breakpoint_limits():
    spec = {
        "pieces": [
            {"interval": ["-inf", 0], "kind": "affine", "slope": 1, "intercept": 0},
            {"interval": [0, "inf"], "kind": "affine", "slope": 1, "intercept": 1},
        ],
        "breakpoints": [{"x": 0, "left": 0, "right": 2}],
    }
    with pytest.raises(ValueError, match="disagree"):
        from_config(spec)


def test_from_config_rejects_invalid_function():
    spec = {
        "pieces": [
            {"interval": ["-inf", 0], "kind": "affine", "slope": 1, "intercept": 0},
            {"interval": [0, "inf"], "kind": "affine", "slope": 1, "intercept": -2},
        ],
    }
    with pytest.raises(ValueError, match="admissible"):
        from_config(spec)


def test_values_vectorized_matches_scalar(uj):
    xs = np.array([-3.0, -0.5, 0.25, 4.0])
    np.testing.assert_allclose(uj.values(xs), [uj.value(float(x)) for x in xs])


def test_import_leaves_scipy_integrate_out():
    # quad is imported where a callable piece is integrated, not with the package
    code = "import sys, consensus_lab; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"
