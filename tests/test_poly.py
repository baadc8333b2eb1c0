from __future__ import annotations

import numpy as np
import pytest

from shscert.poly import (
    IntervalBox,
    NoiseMoments,
    Polynomial,
    min_on_interval,
    nonneg_on_box,
    sturm_root_count,
)

X = Polynomial.variable("x")
B1 = Polynomial.univariate("x", [0.0369, -0.0849, 0.0814, -0.0345, 0.0054])


def horner(coeffs_desc, x):
    total = 0.0
    for c in coeffs_desc:
        total = total * x + c
    return total


class TestEval:
    def test_quadratic(self):
        assert (X**2 + 1).eval({"x": 2.0}) == 5.0

    def test_zero_polynomial(self):
        assert Polynomial((), {}).eval({}) == 0.0

    def test_case_study_certificate_at_seven(self):
        expected = horner([0.0054, -0.0345, 0.0814, -0.0849, 0.0369], 7.0)
        assert B1.eval({"x": 7.0}) == pytest.approx(expected, abs=1e-12)
        assert B1.eval({"x": 7.0}) == pytest.approx(4.5631, abs=1e-4)

    def test_unassigned_variable(self):
        with pytest.raises(ValueError, match="unassigned"):
            (X + Polynomial.variable("y")).eval({"x": 1.0})

    def test_declared_but_unused_variable_not_required(self):
        p = Polynomial(("x", "y"), {(2, 0): 1.0})
        assert p.eval({"x": 3.0}) == 9.0


class TestCalculus:
    def test_derivative_cube(self):
        assert (X**3).derivative("x") == 3 * X**2

    def test_derivative_constant(self):
        assert Polynomial.constant(4.0).derivative("x").is_zero()

    def test_certificate_slope_at_origin(self):
        assert B1.derivative("x").eval({"x": 0.0}) == pytest.approx(-0.0849)

    def test_second_derivative(self):
        assert (X**4).second_derivative("x") == 12 * X**2


class TestSubstitute:
    def test_shift(self):
        got = (X**2).substitute({"x": X + 0.5})
        assert got.allclose(X**2 + X + 0.25)

    def test_identity(self):
        f2 = 0.01 * X**3 + 0.5 * Polynomial.variable("varsigma")
        assert X.substitute({"x": f2}) == f2

    def test_jump_map_square(self):
        nu = Polynomial.variable("nu")
        w = Polynomial.variable("varsigma")
        got = (X**2).substitute({"x": 0.01 * X**3 + 0.06 * nu + 0.5 * w})
        want = (
            1e-4 * X**6
            + 0.0012 * X**3 * nu
            + 0.01 * X**3 * w
            + 0.0036 * nu**2
            + 0.06 * nu * w
            + 0.25 * w**2
        )
        assert got.allclose(want)

    def test_simultaneous_multivariate_substitution(self):
        y = Polynomial.variable("y")
        p = X * y + y**2
        got = p.substitute({"x": X + y, "y": 2 * y})
        # (x+y)(2y) + (2y)^2, with the original y everywhere at once
        assert got.allclose(2 * X * y + 6 * y**2)

    def test_substitution_respects_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = Polynomial.univariate("x", rng.uniform(-2, 2, 5))
            q = Polynomial.univariate("x", rng.uniform(-2, 2, 3))
            pt = float(rng.uniform(-2, 2))
            direct = p.substitute({"x": q}).eval({"x": pt})
            via = p.eval({"x": q.eval({"x": pt})})
            assert direct == pytest.approx(via, rel=1e-9, abs=1e-9)


class TestExpect:
    def setup_method(self):
        self.std = NoiseMoments.standard_normal(6)

    def test_square(self):
        w = Polynomial.variable("w")
        assert (w**2).expect({"w": self.std}).allclose(Polynomial.constant(1.0))

    def test_shifted_square(self):
        w = Polynomial.variable("w")
        got = ((X + 0.5 * w) ** 2).expect({"w": self.std})
        assert got.allclose(X**2 + 0.25)

    def test_odd_moment_vanishes(self):
        w = Polynomial.variable("w")
        assert (w**3).expect({"w": self.std}).is_zero()

    def test_missing_moment_order_named(self):
        w = Polynomial.variable("w")
        with pytest.raises(ValueError, match="order 8"):
            (w**8).expect({"w": self.std})

    def test_linearity(self):
        rng = np.random.default_rng(11)
        w = Polynomial.variable("w")
        for _ in range(20):
            p = Polynomial(("x", "w"), {(i, j): rng.uniform(-1, 1) for i in range(3) for j in range(3)})
            q = Polynomial(("x", "w"), {(i, j): rng.uniform(-1, 1) for i in range(3) for j in range(3)})
            a, b = rng.uniform(-3, 3, 2)
            lhs = (a * p + b * q).expect({"w": self.std})
            rhs = a * p.expect({"w": self.std}) + b * q.expect({"w": self.std})
            assert lhs.allclose(rhs, tol=1e-12)

    def test_independent_components_factor(self):
        u, v = Polynomial.variable("u"), Polynomial.variable("v")
        got = (u**2 * v**2).expect({"u": self.std, "v": self.std})
        assert got.allclose(Polynomial.constant(1.0))


class TestArithmeticInvariants:
    def test_no_zero_terms_stored(self):
        p = X - X
        assert p.terms == {}
        q = X**2 + 0.0 * X
        assert all(c != 0.0 for c in q.terms.values())

    def test_commutativity_and_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = Polynomial.univariate("x", rng.uniform(-1, 1, 4))
            b = Polynomial.univariate("x", rng.uniform(-1, 1, 4))
            c = Polynomial.univariate("x", rng.uniform(-1, 1, 4))
            assert (a + b).allclose(b + a, tol=1e-12)
            assert (a * b).allclose(b * a, tol=1e-12)
            assert ((a + b) + c).allclose(a + (b + c), tol=1e-12)
            assert ((a * b) * c).allclose(a * (b * c), tol=1e-12)

    def test_json_round_trip(self):
        p = B1 * Polynomial.variable("nu") + 2.5
        assert Polynomial.from_json(p.to_json()).allclose(p, tol=0.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            X ** (-1)

    def test_power_equals_square_and_multiply(self):
        def reference(base, k):
            result = Polynomial.constant(1.0)
            while k:
                if k & 1:
                    result = result * base
                base = base * base
                k >>= 1
            return result

        y, nu = Polynomial.variable("y"), Polynomial.variable("nu")
        for p in (B1, 0.3 * X - 1.7 * y + 0.1, B1 * nu + 2.5 * y, X - X):
            for k in range(9):
                got, want = p**k, reference(p, k)
                assert got.vars == want.vars
                assert list(got.terms.items()) == list(want.terms.items())

    def test_compiled_requires_effective_vars(self):
        p = X + Polynomial.variable("y")
        with pytest.raises(ValueError, match="not in evaluation order"):
            p.compiled(("x",))
        fn = p.compiled(("y", "x"))
        assert fn((2.0, 1.0)) == 3.0

    def test_json_schema(self):
        doc = B1.to_dict()
        assert doc["vars"] == ["x"]
        assert {"exp": [4], "coef": 0.0054} in doc["terms"]


class TestSturm:
    def test_sqrt_two(self):
        assert sturm_root_count(X**2 - 2, 0, 2) == 1

    def test_three_roots(self):
        p = (X - 1) * (X - 2) * (X - 3)
        assert sturm_root_count(p, 0, 10) == 3

    def test_double_root_counts_once(self):
        assert sturm_root_count((X - 1) ** 2, 0, 8) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sturm_root_count(Polynomial((), {}), 0, 1)

    def test_half_open_interval_convention(self):
        # counts roots in (a, b]: left endpoint excluded, right included
        p = (X - 2) * (X - 5)
        assert sturm_root_count(p, 2, 5) == 1
        assert sturm_root_count(p, 1, 5) == 2
        assert sturm_root_count(p, 2, 4.999) == 0

    def test_against_dense_scan(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 60:
            n_real = int(rng.integers(0, 5))
            n_cplx = int(rng.integers(0, (8 - n_real) // 2 + 1))
            if n_real + 2 * n_cplx < 1:
                continue
            roots = np.sort(rng.uniform(-9, 9, n_real))
            if n_real > 1 and np.min(np.diff(roots)) < 1e-3:
                continue
            coeffs = np.array([1.0])
            for r in roots:
                coeffs = np.convolve(coeffs, [1.0, -r])
            for _ in range(n_cplx):
                re, im = rng.uniform(-3, 3), rng.uniform(0.2, 3)
                coeffs = np.convolve(coeffs, [1.0, -2 * re, re * re + im * im])
            a, b = np.sort(rng.uniform(-10, 10, 2))
            if b - a < 0.1 or any(abs(roots - a) < 1e-3) or any(abs(roots - b) < 1e-3):
                continue
            p = Polynomial.univariate("x", coeffs[::-1])
            grid = np.linspace(a, b, 200_001)
            vals = np.polyval(coeffs, grid)
            signs = np.sign(vals)
            scan = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert sturm_root_count(p, a, b) == scan
            checked += 1


class TestMinOnInterval:
    def test_parabola(self):
        value, arg = min_on_interval((X - 1) ** 2, 0, 8)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert arg == pytest.approx(1.0, abs=1e-6)

    def test_linear(self):
        assert min_on_interval(X - 3, 0, 8) == (-3.0, 0.0)

    def test_certificate_on_initial_box(self):
        value, _ = min_on_interval(B1, 0, 1.5)
        assert 0.0 <= value <= 0.13
        grid = np.linspace(0, 1.5, 1_000_001)
        dense = float(np.min(np.polyval([0.0054, -0.0345, 0.0814, -0.0849, 0.0369], grid)))
        assert value == pytest.approx(dense, abs=1e-9)

    def test_degenerate_interval(self):
        assert min_on_interval(B1, 2.0, 2.0)[1] == 2.0

    def test_constant_polynomial(self):
        assert min_on_interval(Polynomial.constant(4.0), 0, 1) == (4.0, 0.0)

    def test_lower_bounds_random_points(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = Polynomial.univariate("x", rng.uniform(-2, 2, 7))
            a, b = np.sort(rng.uniform(-5, 5, 2))
            if b - a < 1e-6:
                continue
            value, _ = min_on_interval(p, a, b)
            xs = rng.uniform(a, b, 1000)
            vals = np.polyval(p.dense_coeffs()[::-1], xs)
            assert value <= float(np.min(vals)) + 1e-9

    def test_argmin_tie_breaks_small(self):
        p = (X - 1) ** 2 * (X - 3) ** 2  # equal minima at 1 and 3
        _, arg = min_on_interval(p, 0, 4)
        assert arg == pytest.approx(1.0, abs=1e-6)


class TestNonnegOnBox:
    def test_univariate_holds(self):
        rep = nonneg_on_box((X - 1) ** 2, IntervalBox({"x": (0, 8)}))
        assert rep.status == "holds"
        assert rep.margin == pytest.approx(0.0, abs=1e-9)

    def test_univariate_fails_with_witness(self):
        rep = nonneg_on_box(X - 3, IntervalBox({"x": (0, 8)}))
        assert rep.status == "fails"
        assert rep.witness == {"x": 0.0}

    def test_unsafe_level_set_direction(self):
        # eta - B fails on the unsafe box, while B - eta holds there
        box = IntervalBox({"x": (7, 8)})
        assert nonneg_on_box(4.4 - B1, box).status == "fails"
        held = nonneg_on_box(B1 - 4.4, box)
        assert held.status == "holds"
        assert held.margin == pytest.approx(0.1631, abs=1e-3)

    def test_multivariate_holds(self):
        y = Polynomial.variable("y")
        p = (X - 1) ** 2 + (y - 2) ** 2 + 0.5
        rep = nonneg_on_box(p, IntervalBox({"x": (0, 3), "y": (0, 4)}))
        assert rep.status == "holds"

    def test_multivariate_fails(self):
        y = Polynomial.variable("y")
        rep = nonneg_on_box(X * y - 5, IntervalBox({"x": (0, 3), "y": (0, 4)}))
        assert rep.status == "fails"
        assert rep.witness is not None
        assert X.eval(rep.witness) * y.eval(rep.witness) - 5 < 0

    def test_multivariate_inconclusive(self):
        y = Polynomial.variable("y")
        rep = nonneg_on_box((X - y) ** 2, IntervalBox({"x": (0, 1), "y": (0, 1)}))
        assert rep.status == "inconclusive"

    def test_missing_box_variable(self):
        with pytest.raises(ValueError, match="does not cover"):
            nonneg_on_box(X + Polynomial.variable("y"), IntervalBox({"x": (0, 1)}))


class TestNoiseMoments:
    def test_standard_normal_values(self):
        m = NoiseMoments.standard_normal(8)
        assert m.moments[:5] == (1.0, 0.0, 1.0, 0.0, 3.0)
        assert m.get(6) == 15.0
        assert m.get(8) == 105.0

    def test_zeroth_moment_must_be_one(self):
        with pytest.raises(ValueError):
            NoiseMoments((2.0, 0.0, 1.0))

    def test_variance_nonnegative(self):
        with pytest.raises(ValueError):
            NoiseMoments((1.0, 1.0, 0.5))


class TestIntervalBox:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalBox({"x": (2, 1)})

    def test_subset(self):
        inner = IntervalBox({"x": (0, 1.5)})
        outer = IntervalBox({"x": (0, 8)})
        assert inner.subset_of(outer)
        assert not outer.subset_of(inner)

    def test_inequalities(self):
        box = IntervalBox({"x": (0, 8)})
        lo, hi = box.inequalities()
        assert lo.eval({"x": 0.0}) == 0.0 and lo.eval({"x": 3.0}) == 3.0
        assert hi.eval({"x": 8.0}) == 0.0 and hi.eval({"x": 3.0}) == 5.0

    def test_roundtrip(self):
        box = IntervalBox({"x": (0, 8), "y": (-1, 1)})
        assert IntervalBox.from_dict(box.to_dict()) == box
