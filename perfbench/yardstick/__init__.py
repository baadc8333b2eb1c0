"""Frozen copy of shscert's poly, model, certify, augment and sim modules.

The files are verbatim copies of ``src/shscert`` as of the commit that
added the benchmark, and ``cases.json`` holds bundled cases 1 and 3 from
the same commit. ``calibrate.py`` times one operation on this copy next
to the workload as a speed reference. Do not update it along with the
package: its value is that program changes do not reach it.
"""
