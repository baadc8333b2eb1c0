"""Speed reference: the same kind of code as the program, frozen.

On a 2-core Xeon virtual machine whose host is shared with other tenants,
the same work can take from 1x to 1.8x as long for minutes at a time;
neither process CPU time nor a synthetic loop follows that drift closely.
The program's own code does: in interleaved trials on that machine, the
time of one shscert call divided by the time of another taken next to it
varied by under 2% while each alone varied by about 15%.

So between operations, at least 0.4 s apart, the loop times a reference
operation on ``yardstick/``, a frozen copy of shscert's modules: one
trajectory of bundled case 3 and one check of the case-1 certificate. On
that machine the reference time flips between about 10 ms and 18 ms from
one second to the next, so each operation is scaled by the two reference
times that bracket it, the last before it started and the first after it
ended: by ``NOMINAL_S`` over their mean. Over 20 s windows of one long
run of each workload, the spreads (IQR over median) of the gated timings
were 0.09-0.5 raw, 0.04-0.09 scaled by the median of the five nearest
reference times, and 0.03-0.07 scaled by the bracketing pair. A change to
the package does not reach the copy, so it moves a scaled timing as it
moves the raw one.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from pathlib import Path

from yardstick.augment import construct_acbc
from yardstick.certify import CbcCandidate, check_cbc
from yardstick.model import JumpSchedule, SHSModel
from yardstick.sim import SimConfig, simulate

NOMINAL_S = 0.015  # about the reference operation's time on that machine
EVERY_S = 0.4  # least time between reference operations

# Set-up is import work, mostly numpy and scipy.stats, which the reference
# operation does not follow. Its reference is a fresh process that imports
# the frozen copy (scipy.stats included) and parses its bundled cases; the
# package's set-up time is scaled by NOMINAL_SETUP_S over that one's.
NOMINAL_SETUP_S = 1.4  # about the set-up reference's time on that machine
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
from pathlib import Path
import yardstick, yardstick.augment, yardstick.sim
from yardstick.certify import CbcCandidate
from yardstick.model import SHSModel
for c in json.loads((Path(yardstick.__file__).parent / "cases.json").read_text()).values():
    SHSModel.from_dict(c["model"])
    CbcCandidate.from_dict(c["candidate"])
print(repr(time.perf_counter() - t0))
"""


class Calibrator:
    def __init__(self):
        doc = json.loads((Path(__file__).parent / "yardstick" / "cases.json").read_text())
        c1, c3 = doc["1"], doc["3"]
        self.model1 = SHSModel.from_dict(c1["model"])
        self.cand1 = CbcCandidate.from_dict(c1["candidate"])
        self.model3 = SHSModel.from_dict(c3["model"])
        self.cand3 = CbcCandidate.from_dict(c3["candidate"])
        self.acbc3 = construct_acbc(self.cand3, self.model3.jump, c3["eps1"], c3["eps2"])
        self.config3 = SimConfig(
            horizon_T=c3["horizon"], schedule=JumpSchedule.parse(c3["schedule"])
        )
        self.times: list[float] = []  # when each reference operation ended
        self.durations: list[float] = []
        self.last = -float("inf")
        for _ in range(3):  # fills per-object caches, so every timed run does the same work
            self.reference()

    def reference(self) -> float:
        t0 = time.perf_counter()
        simulate(self.model3, self.cand3, self.config3, acbc=self.acbc3)
        check_cbc(self.model1, self.cand1)
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.durations.append(self.reference())
        self.last = time.perf_counter()
        self.times.append(self.last)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean of the reference times that bracket the
        operation from ``start`` to ``end``."""
        before = max(0, bisect.bisect_right(self.times, start) - 1)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return NOMINAL_S / statistics.fmean((self.durations[before], self.durations[after]))
