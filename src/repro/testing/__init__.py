"""Test-support utilities that ship with the package.

:mod:`repro.testing.chaos` is the fault-injection harness: kill shard
workers mid-ingest, run a real ``repro serve`` process that can be
SIGKILLed between checkpoints, and wait on recovery conditions with a
deadline.  The test suite and the recovery benchmarks both drive the
fault-tolerance layer through these helpers, so the crash scenarios stay
reproducible instead of hand-rolled per test.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".chaos": ("ServerProcess", "kill_worker", "wait_until"),
    },
)
