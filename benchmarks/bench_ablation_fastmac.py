"""Ablation — Section 7's partial-digest speed/strength trade-off.

"The idea is to digest a small part of the message to make the
authentication tag.  This will increase forgery probability, but it will be
better than CRC."  Sweeps the coverage knob and prints digested bytes,
measured throughput, and the modelled forgery probability side by side.
"""

import time

from repro.core.auth import auth_function_for
from repro.core.fastmac import PartialDigestFunction
from repro.sim.config import AuthMode

from benchmarks.conftest import emit

MESSAGE = bytes(i & 0xFF for i in range(1024 + 34))  # one MTU frame
KEY = b"0123456789abcdef"
COVERAGES = (0.25, 0.5, 0.75, 1.0)


def test_ablation_partial_digest(benchmark):
    umac = auth_function_for(AuthMode.UMAC)

    def sweep():
        rows = []
        for cov in COVERAGES:
            f = PartialDigestFunction(umac, cov)
            compute = f.bind()
            compute(KEY, MESSAGE, 1)  # warm: runs the key schedule once
            t0 = time.perf_counter()
            for n in range(60):
                compute(KEY, MESSAGE, n)
            elapsed = time.perf_counter() - t0
            rows.append(
                (
                    cov,
                    f.covered_fraction(MESSAGE),
                    len(f.select(MESSAGE)),
                    len(MESSAGE) * 60 / elapsed / 1e6,
                    f.forgery_probability(MESSAGE),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("")
    emit("Ablation — partial-digest MAC (Section 7 trade-off), UMAC inner")
    emit(f"{'target cov':>11} {'actual':>8} {'digested B':>11} {'MB/s':>8} {'forgery prob':>13}")
    for cov, actual, nbytes, mbps, forgery in rows:
        emit(f"{cov:>11.0%} {actual:>8.0%} {nbytes:>11} {mbps:>8.1f} {forgery:>13.3g}")

    # strength falls monotonically as coverage falls; all beat CRC's 1.0
    forgeries = [r[4] for r in rows]
    assert forgeries == sorted(forgeries, reverse=True)
    assert all(f < 1.0 for f in forgeries)
    # fewer digested bytes at lower coverage
    assert rows[0][2] < rows[-1][2]
