"""repro — reproduction of "Security Enhancement in InfiniBand Architecture"
(Lee, Kim, Yousif; IPPS 2005).

Packages:

* :mod:`repro.crypto` — from-scratch UMAC / RSA / XTEA / PMAC / AES-CMAC /
  stream-cipher MAC; CRC-32 / MD5 / SHA-1 / HMAC computed by the standard
  library, with from-scratch versions kept as oracles and Table 4 specimens.
* :mod:`repro.sim` — discrete-event engine, config, metrics, traffic,
  experiment runner.
* :mod:`repro.iba` — InfiniBand fabric: packets, CRCs, keys, VLs, credit
  flow control, switches, HCAs, QPs, Subnet Manager, mesh topology.
* :mod:`repro.core` — the paper's contributions: DPT/IF/SIF partition
  enforcement, ICRC-as-MAC authentication, partition-/QP-level key
  management, the executable threat matrix, DoS attack models.
* :mod:`repro.analysis` — Table 4 performance/forgery models and the CACTI
  SRAM argument.

Quick start::

    from repro.sim import SimConfig, run_simulation
    report = run_simulation(SimConfig(num_attackers=1, sim_time_us=1000))
    print(report.summary())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
