"""Tests for semialgebraic sets, boxes and balls."""

import numpy as np
import pytest

from repro.poly import Polynomial
from repro.sets import Ball, Box, SemialgebraicSet
from repro.soundness import strategies as st

SEED = st.resolve_seed(0)


# ----------------------------------------------------------------------
# Box
# ----------------------------------------------------------------------
def test_box_membership():
    box = Box([-1, -1], [1, 2])
    assert box.contains(np.array([0.0, 0.0]))
    assert not box.contains(np.array([0.0, 2.5]))
    mask = box.contains(np.array([[0, 0], [2, 0], [1, 2]], dtype=float))
    assert mask.tolist() == [True, False, True]


def test_box_constraint_polynomials_nonneg_inside():
    box = Box([-1, 0], [1, 3])
    pts = box.sample(100, rng=np.random.default_rng(0))
    for g in box.constraints:
        assert np.all(g(pts) >= -1e-12)


def test_box_cube():
    c = Box.cube(3, -2.0, 2.0)
    assert c.n_vars == 3
    np.testing.assert_allclose(c.lo, [-2, -2, -2])


def test_box_sample_inside():
    box = Box([-1, 0.5], [0, 1.5])
    pts = box.sample(200, rng=np.random.default_rng(1))
    assert pts.shape == (200, 2)
    assert np.all(box.contains(pts))


def test_box_mesh_spacing():
    box = Box([0, 0], [1, 1])
    mesh = box.mesh(0.5)
    assert mesh.shape == (9, 2)
    assert box.effective_spacing(0.5) == pytest.approx(0.5)


def test_box_mesh_respects_max_points():
    box = Box.cube(3, -1, 1)
    mesh = box.mesh(0.01, max_points=1000)
    assert mesh.shape[0] <= 1000


def test_box_mesh_invalid_spacing():
    with pytest.raises(ValueError):
        Box([0], [1]).mesh(0.0)


def test_box_volume():
    assert Box([0, 0], [2, 3]).volume() == 6.0


def test_box_invalid_bounds():
    with pytest.raises(ValueError):
        Box([1, 1], [0, 0])  # caught by base-class check via constraints box
    with pytest.raises(ValueError):
        Box([[0, 0]], [[1, 1]])


def test_box_project():
    box = Box([-1, -1], [1, 1])
    np.testing.assert_allclose(box.project(np.array([5.0, -3.0])), [1.0, -1.0])


# ----------------------------------------------------------------------
# Ball
# ----------------------------------------------------------------------
def test_ball_membership_and_constraint():
    ball = Ball([1.0, 0.0], 2.0)
    assert ball.contains(np.array([2.0, 0.0]))
    assert not ball.contains(np.array([4.0, 0.0]))
    g = ball.constraints[0]
    assert g(np.array([1.0, 0.0])) == pytest.approx(4.0)
    assert g(np.array([3.0, 0.0])) == pytest.approx(0.0)


def test_ball_sampling_uniform_inside():
    ball = Ball([0.0, 0.0, 0.0], 1.5)
    pts = ball.sample(500, rng=np.random.default_rng(2))
    assert np.all(ball.contains(pts, tol=1e-9))
    # mean radius of uniform ball in 3D is 3/4 R
    radii = np.linalg.norm(pts, axis=1)
    assert np.mean(radii) == pytest.approx(0.75 * 1.5, rel=0.1)


def test_ball_invalid():
    with pytest.raises(ValueError):
        Ball([0, 0], -1.0)
    with pytest.raises(ValueError):
        Ball([[0, 0]], 1.0)


# ----------------------------------------------------------------------
# generic semialgebraic set
# ----------------------------------------------------------------------
def annulus():
    # 0.5 <= ||x|| <= 1.5 as {g1 = |x|^2 - 0.25 >= 0, g2 = 2.25 - |x|^2 >= 0}
    x, y = Polynomial.variables(2)
    r2 = x * x + y * y
    return SemialgebraicSet(
        2,
        [r2 - 0.25, 2.25 - r2],
        bounding_box=([-1.5, -1.5], [1.5, 1.5]),
        name="annulus",
    )


def test_generic_set_membership():
    s = annulus()
    assert s.contains(np.array([1.0, 0.0]))
    assert not s.contains(np.array([0.0, 0.0]))
    assert not s.contains(np.array([2.0, 0.0]))


def test_generic_set_violation():
    s = annulus()
    assert s.violation(np.array([1.0, 0.0])) == 0.0
    assert s.violation(np.array([0.0, 0.0])) == pytest.approx(0.25)


def test_generic_set_rejection_sampling():
    s = annulus()
    pts = s.sample(100, rng=np.random.default_rng(3))
    assert np.all(s.contains(pts))


def test_generic_set_needs_bbox_to_sample():
    x = Polynomial.variable(1, 0)
    s = SemialgebraicSet(1, [x])
    with pytest.raises(ValueError):
        s.sample(10)


def test_constraint_nvars_mismatch():
    with pytest.raises(ValueError):
        SemialgebraicSet(2, [Polynomial.one(3)])


def test_repr_smoke():
    assert "annulus" in repr(annulus())
    assert "Box" in repr(Box([0], [1]))
    assert "Ball" in repr(Ball([0.0], 1.0))


def test_box_sample_always_inside():
    def prop(args):
        lo, width = args
        box = Box([lo, lo], [lo + width, lo + width])
        pts = box.sample(50, rng=np.random.default_rng(0))
        assert np.all(box.contains(pts))

    st.run_property(
        "box-sample-inside",
        st.tuples(st.floats(-2, 0), st.floats(0.1, 2)),
        prop,
        n_examples=st.fuzz_examples(30),
        seed=SEED,
    )
