"""Tour of the polynomial layer: algebra, expectations, root counting,
and rigorous nonnegativity checks on intervals."""

from shscert import (
    IntervalBox,
    NoiseMoments,
    Polynomial,
    min_on_interval,
    nonneg_on_box,
    sturm_root_count,
)

x = Polynomial.variable("x")
w = Polynomial.variable("w")

print("== sparse polynomial algebra ==")
p = (x - 1) * (x - 2) * (x - 3)
print(f"p = (x-1)(x-2)(x-3) expands to {p}")
print(f"p(2.5) = {p.eval({'x': 2.5})}")
print(f"dp/dx = {p.derivative('x')}")

print("\n== composition ==")
shifted = p.substitute({"x": x + 0.5})
print(f"p(x + 0.5) = {shifted}")

print("\n== noise expectation ==")
moments = NoiseMoments.standard_normal(6)
q = (x + 0.5 * w) ** 2
print(f"E[(x + 0.5 W)^2] over standard normal W = {q.expect({'w': moments})}")

print("\n== root counting via Sturm chains ==")
print(f"roots of p in (0, 10]: {sturm_root_count(p, 0, 10)}")
print(f"roots of x^2 - 2 in (0, 2]: {sturm_root_count(x**2 - 2, 0, 2)}")
double = (x - 1) ** 2
print(f"distinct roots of (x-1)^2 in (0, 8]: {sturm_root_count(double, 0, 8)}")

print("\n== interval minimization (exact for one variable) ==")
value, arg = min_on_interval(p, 0.0, 10.0)
print(f"min of p on [0, 10] = {value:.6f} at x = {arg:.6f}")

print("\n== nonnegativity reports ==")
box = IntervalBox({"x": (0, 8)})
for poly, label in [((x - 1) ** 2, "(x-1)^2"), (x - 3, "x - 3")]:
    rep = nonneg_on_box(poly, box)
    print(f"{label} on [0,8]: {rep.status}, margin {rep.margin:.4f}, witness {rep.witness}")

y = Polynomial.variable("y")
rep = nonneg_on_box((x - y) ** 2, IntervalBox({"x": (0, 1), "y": (0, 1)}))
print(f"(x-y)^2 on the unit square: {rep.status} (Bernstein enclosure cannot certify a touching minimum)")
