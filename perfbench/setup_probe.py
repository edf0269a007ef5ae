"""Time one workload's set-up in a fresh process: package import plus builds.

Usage: python3 perfbench/setup_probe.py WORKLOAD LAM_HEX [LAM_HEX ...]

Prints the seconds from just before `import hjb_pi` to the end of the last
`build_benchmark` call, rescaled to the reference host speed by a
`speed.SpeedProbe` that runs throughout (see speed.py).  numpy is already
imported by then, because the probe uses it; the package's own import and
the builds are what is timed.  The probe samples every PERIOD_S, more often
than in a solve, because the timed stretch is only a few tens of
milliseconds long.  Rates are passed as float.hex strings so
the child builds exactly the rates the parent drew.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PERIOD_S = 0.002


def main() -> None:
    name, lams = sys.argv[1], [float.fromhex(tok) for tok in sys.argv[2:]]
    from speed import SpeedProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    with SpeedProbe(PERIOD_S) as probe:
        t0 = probe.clock()
        import hjb_pi

        for lam in lams:
            workload.build(hjb_pi, lam)
        seconds = probe.clock() - t0
    print(repr(seconds * probe.speed()))


if __name__ == "__main__":
    main()
