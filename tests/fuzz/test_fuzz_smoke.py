"""tier2_fuzz smoke: 10 generated scenarios through every invariant oracle
(one production leg each, plus the Bloom shadow leg on SIF scenarios).

Select with ``pytest -m tier2_fuzz``; also runs in the tier-1 suite."""

import pytest

from repro.fuzz.generators import generate_scenario
from repro.fuzz.oracles import run_scenario

pytestmark = pytest.mark.tier2_fuzz


def test_ten_scenarios_clean():
    tampered = injected = 0
    for index in range(10):
        scenario = generate_scenario(0, index)
        result = run_scenario(scenario)
        assert result.ok, (
            f"{scenario.summary()}\n"
            + "\n".join(str(v) for v in result.violations)
        )
        is_sif = scenario.config.get("enforcement") == "sif"
        assert (result.bloom_shadow is not None) == is_sif
        tampered += len(result.run.tampered_ids)
        injected += len(result.run.injected_ids)
    # the batch genuinely exercised the attack surface
    assert tampered + injected > 0
