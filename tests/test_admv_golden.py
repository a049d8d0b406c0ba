"""Pin ``ADMV``: optimal values to the bit and the schedules behind them.

The pinned values were recorded with the one-``d1``-at-a-time loop that
ran the partial-verification scan once per ``(d1, m1)`` pair and
re-scanned the optimal pairs to backtrack.  The ``m1``-outer,
``p1``-wavefront pass that replaced it must reproduce every
``expected_time`` bit and every schedule, on the Table-I platforms and on
a failure-intense platform where partial verifications pay off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chains import TaskChain, highlow_chain, random_chain, uniform_chain
from repro.core import optimize
from repro.core.dp_partial import optimize_partial
from repro.experiments.dag_search import stress_platform
from repro.platforms import TABLE1_ROWS
from repro.testing import random_cost_profile

STRESS = stress_platform()
PLATFORMS = {platform.name: platform for platform in (*TABLE1_ROWS, STRESS)}
SIZES = (1, 7, 20, 50)


def chain_of(pattern: str, n: int, platform_name: str) -> TaskChain:
    """The paper's total weight on Table I, 250 s per task on stress."""
    total = {"stress": 250.0 * n}.get(platform_name)
    kwargs = {} if total is None else {"total_weight": total}
    if pattern == "uniform":
        return uniform_chain(n, **kwargs)
    if pattern == "highlow":
        return highlow_chain(n, **kwargs)
    return random_chain(n, rng=n, **kwargs)


def cases():
    """``(platform, pattern, n, paper_faithful, profiled)`` tuples."""
    out = []
    for name in PLATFORMS:
        for pattern in ("uniform", "highlow", "random"):
            for n in SIZES:
                if name == "stress" and n == 50:
                    continue
                out.append((name, pattern, n, False, False))
    for name in ("Hera", "Atlas", "stress"):
        for n in (7, 20):
            out.append((name, "random", n, True, False))
            out.append((name, "random", n, False, True))
            out.append((name, "random", n, True, True))
    return out


def solve(name: str, pattern: str, n: int, paper_faithful: bool, profiled: bool):
    platform = PLATFORMS[name]
    chain = chain_of(pattern, n, name)
    costs = random_cost_profile(np.random.default_rng(n), n) if profiled else None
    if not paper_faithful:
        return optimize(chain, platform, "admv", costs=costs)
    return optimize_partial(chain, platform, paper_faithful=True, costs=costs)


#: platform (spaces as ``_``), pattern, n, pricing, costs,
#: ``expected_time.hex()`` and the schedule string of each case
GOLDEN_TABLE = """
Hera        uniform  1 exact platform 0x1.b352e26f68c4cp+14 D
Hera        uniform  7 exact platform 0x1.984295d173a02p+14 MMMMMMD
Hera        uniform 20 exact platform 0x1.96f0e6ceadd2cp+14 pppMpppMppMppMppMppD
Hera        uniform 50 exact platform 0x1.9654e1ac92b63p+14 ppppppppMppppppppMpppppppMpppppppMpppppppMpppppppD
Hera        highlow  1 exact platform 0x1.b352e26f68c4cp+14 D
Hera        highlow  7 exact platform 0x1.9fc6d1a0b20e7p+14 MpMpMpD
Hera        highlow 20 exact platform 0x1.99b0a551c38d0p+14 MMppppppppMppppppppD
Hera        highlow 50 exact platform 0x1.9756748f01f46p+14 MMMMpppp.pMppppppppppppppppp.pMpppppppppppppppp.pD
Hera        random   1 exact platform 0x1.b352e26f68c4cp+14 D
Hera        random   7 exact platform 0x1.9930780f6ed0dp+14 MMMpMpD
Hera        random  20 exact platform 0x1.973cdef5de90ep+14 pppMpppMpMppMppMpppD
Hera        random  50 exact platform 0x1.966ad5102c138p+14 ppppppMppppppppMpp.pppp.pMpppppppMp.pppppM.ppppppD
Atlas       uniform  1 exact platform 0x1.e4c26bf6a5e36p+14 D
Atlas       uniform  7 exact platform 0x1.9d39a03a53964p+14 MMMMMMD
Atlas       uniform 20 exact platform 0x1.9927777cb4db3p+14 pMpMpMpMpMpMpMpMpMpD
Atlas       uniform 50 exact platform 0x1.97d932a3b1fe9p+14 ppppMppppMpppMpppMpppMpppMpppMpppMpppMpppMpppMpppD
Atlas       highlow  1 exact platform 0x1.e4c26bf6a5e36p+14 D
Atlas       highlow  7 exact platform 0x1.b1689f00fecffp+14 MMMMMMD
Atlas       highlow 20 exact platform 0x1.a20be69dba56bp+14 MMpppMpppMpppMppMppD
Atlas       highlow 50 exact platform 0x1.9a06f11a7a35cp+14 MMMMMppppppppMppppppppMppppppppMppppppppMppppppppD
Atlas       random   1 exact platform 0x1.e4c26bf6a5e36p+14 D
Atlas       random   7 exact platform 0x1.a0c4f5ee37e35p+14 MMMMMMD
Atlas       random  20 exact platform 0x1.99d22cc1b5664p+14 pMpMppMMMMMpppMMMppD
Atlas       random  50 exact platform 0x1.9803c44aeb303p+14 ppMpppMpppMppppMpppMpppppMpppMpppMppppMppMpppMpppD
Coastal     uniform  1 exact platform 0x1.ad647e21bc89ap+14 D
Coastal     uniform  7 exact platform 0x1.9cda31b0ba92ap+14 MMMMMMD
Coastal     uniform 20 exact platform 0x1.9c07cb650a0c0p+14 pMpMpMpMpMpMpMpMpMpD
Coastal     uniform 50 exact platform 0x1.9bb493c93ced1p+14 ppppppMppppppMpppppMpppppMpppppMpppppMpppppMpppppD
Coastal     highlow  1 exact platform 0x1.ad647e21bc89ap+14 D
Coastal     highlow  7 exact platform 0x1.a1a8ca2a89481p+14 MpMpMpD
Coastal     highlow 20 exact platform 0x1.9dfb1a2573f92p+14 MMpppppMpppppMpppppD
Coastal     highlow 50 exact platform 0x1.9c31a03095407p+14 MMMMMppppppppppppppMppppppppppppppMppppppppppppppD
Coastal     random   1 exact platform 0x1.ad647e21bc89ap+14 D
Coastal     random   7 exact platform 0x1.9dae03cfbc289p+14 MMMMMpD
Coastal     random  20 exact platform 0x1.9c3d951ad53d1p+14 pMpMppMMMpMpppMMMppD
Coastal     random  50 exact platform 0x1.9bc116eb9fcb1p+14 pppMppppppMpppppMppppppMppppppMppppppMpppppMpppppD
Coastal_SSD uniform  1 exact platform 0x1.c9a8ab6685062p+14 D
Coastal_SSD uniform  7 exact platform 0x1.c192ba0472930p+14 ppppppD
Coastal_SSD uniform 20 exact platform 0x1.c0a28ab11e98dp+14 pppppppppppppppppppD
Coastal_SSD uniform 50 exact platform 0x1.c0a1910d6be6bp+14 ..p.p.p.p.p.p.p.p.p.p.p.p.p.p.p.p.p.p.p.p.p..p.p.D
Coastal_SSD highlow  1 exact platform 0x1.c9a8ab6685062p+14 D
Coastal_SSD highlow  7 exact platform 0x1.c3ca142f6340ep+14 ppppppD
Coastal_SSD highlow 20 exact platform 0x1.c22d4f2a2bb2cp+14 pp.p.p.p.p.p.p.p.p.D
Coastal_SSD highlow 50 exact platform 0x1.c1051e0e86527p+14 ppppp.....p....p....p...p....p....p....p....p....D
Coastal_SSD random   1 exact platform 0x1.c9a8ab6685062p+14 D
Coastal_SSD random   7 exact platform 0x1.c205cb46f320cp+14 ppppppD
Coastal_SSD random  20 exact platform 0x1.c0da2cc88e56ep+14 p.ppp.ppppppp.ppp..D
Coastal_SSD random  50 exact platform 0x1.c0a392893ca29p+14 .p.p..p..pp...p.p.p..p..p..p.p.p.p..p..pp..p.p.p.D
stress      uniform  1 exact platform 0x1.8f4e9d0267257p+8 D
stress      uniform  7 exact platform 0x1.5869fbea60a58p+11 MDDMDMD
stress      uniform 20 exact platform 0x1.eb48118255b24p+12 MDMDMDMDMDMDMDMDMDMD
stress      highlow  1 exact platform 0x1.8f4e9d0267257p+8 D
stress      highlow  7 exact platform 0x1.f6a64e8f11a70p+11 DpMpMpD
stress      highlow 20 exact platform 0x1.f232048b40128p+13 DDpMpDpMpDpMpMDpMpMD
stress      random   1 exact platform 0x1.8f4e9d0267257p+8 D
stress      random   7 exact platform 0x1.6ac1ef26f61d1p+11 DDMMDpD
stress      random  20 exact platform 0x1.0956ad156e0fdp+13 MDMDMpDDDDDMMpDDDpMD
Hera        random   7 paper platform 0x1.99313549762fep+14 MMMpMpD
Hera        random   7 exact profiled 0x1.901dbd703ec18p+14 MDMDMMD
Hera        random   7 paper profiled 0x1.901dfc4edfdb6p+14 MDMDMMD
Hera        random  20 paper platform 0x1.973d30d5fda28p+14 pppMpppMpMppMppMpppD
Hera        random  20 exact profiled 0x1.8c9a590982a00p+14 MpDMppDMMDMppDpMpDpD
Hera        random  20 paper profiled 0x1.8c9a7724d937cp+14 MpDMppDMMDMppDpMpDpD
Atlas       random   7 paper platform 0x1.a0c572e88c7bap+14 MMMMMMD
Atlas       random   7 exact profiled 0x1.97af6f79d5634p+14 DMMDMMD
Atlas       random   7 paper profiled 0x1.97af92a7aafd4p+14 DMMDMMD
Atlas       random  20 paper platform 0x1.99d24c68bd55dp+14 pMpMppMMMMMpppMMMppD
Atlas       random  20 exact profiled 0x1.8f924bf66568bp+14 MMpMppDMMMMMMpDMpMpD
Atlas       random  20 paper profiled 0x1.8f924a608ea5ap+14 MMpMppDMMMMMMpDMpMpD
stress      random   7 paper platform 0x1.6b5bee5e6965bp+11 DDMMDpD
stress      random   7 exact profiled 0x1.44928290268d7p+11 DDMDDMD
stress      random   7 paper profiled 0x1.44ce5d3254798p+11 DDMDDMD
stress      random  20 paper platform 0x1.09fb69ca094efp+13 MDMDMpDDDDDMMpDDDpMD
stress      random  20 exact profiled 0x1.df8a13b070750p+12 DMDDMDDDDDDDMpDDMDMD
stress      random  20 paper profiled 0x1.dffcc2b33d5cep+12 DMDDMDDDDDDDMpDDMDMD
"""


def _golden_row(line: str) -> tuple[tuple, tuple[str, str]]:
    platform, pattern, n, pricing, costs, value, schedule = line.split()
    case = (
        platform.replace("_", " "),
        pattern,
        int(n),
        pricing == "paper",
        costs == "profiled",
    )
    return case, (value, schedule)


GOLDEN = dict(map(_golden_row, GOLDEN_TABLE.strip().splitlines()))


@pytest.mark.parametrize("case", cases(), ids=lambda c: "-".join(map(str, c)))
def test_admv_matches_the_recorded_optimum(case):
    solution = solve(*case)
    assert (
        solution.expected_time.hex(),
        solution.schedule.to_string(),
    ) == GOLDEN[case]
