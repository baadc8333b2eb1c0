"""Check the bundled certificates condition by condition.

The published constants were rounded for print; the margins below show
exactly which conditions survive that rounding for each case. Negative
margins come with a witness point.
"""

from shscert import check_cbc, load_case

for cid in ("1", "2", "3"):
    case = load_case(cid)
    report = check_cbc(case.model, case.candidate)
    print(f"== bundled case {cid} (domain {report.domain}) ==")
    for cond in report.conditions:
        extra = "" if cond.witness is None else f"  witness {cond.witness}"
        print(f"  {cond.condition:8s} {cond.status:12s} margin {cond.margin:+.6f}{extra}")
    print(f"  all hold: {report.all_hold}")
    print()

print(
    "Case 1 fails only the two decay conditions, by thin margins that a\n"
    "warm-started search can repair (see repair_search.py). Cases 2 and 3\n"
    "lose more to rounding, including nonnegativity of the certificate\n"
    "polynomial itself."
)
