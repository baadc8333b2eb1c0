"""Repair the bundled case-1 certificate with a warm-started search.

The printed constants fail the two decay conditions by small margins (a
rounding artifact). Seeding the search with the published candidate and
letting coordinate refinement adjust the constants recovers a certificate
of the same degree with strictly positive margins."""

from shscert import SynthTemplate, check_cbc, load_case, margin_objective, search

case = load_case(1)
print(f"warm-start margin: {margin_objective(case.model, case.candidate):+.6f}")

result = search(case.model, SynthTemplate(budget=100_000, seed=1), warm_start=case.candidate)
print(f"search status: {result.status} after {result.evaluations} evaluations")

cand = result.candidate
print(f"certificate degree: {cand.Bbar.degree()}")
for name in ("kappa1", "kappa2", "gamma1", "gamma2", "alphabar", "etabar"):
    before = getattr(case.candidate, name)
    after = getattr(cand, name)
    marker = "  <- adjusted" if abs(before - after) > 1e-12 else ""
    print(f"  {name:9s} {before:10.6f} -> {after:10.6f}{marker}")

report = check_cbc(case.model, cand)
print("re-verified margins:")
for cond in report.conditions:
    print(f"  {cond.condition:8s} {cond.status:8s} {cond.margin:+.6f}")
assert report.all_hold and report.min_margin > 0
