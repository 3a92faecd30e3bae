"""ICRC-as-MAC: the auth-function registry, tag generation/verification for
every algorithm, fallback behaviour, on-demand partitions, forgery odds."""

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import auth
from repro.core.auth import (
    AUTH_FUNCTIONS,
    AuthFunction,
    IcrcAuthService,
    MacAuthService,
    auth_function_for,
)
from repro.crypto.umac import UMAC
from repro.core.keymgmt import NodeDirectory, PartitionLevelKeyManager
from repro.iba import crc as ibacrc
from repro.iba.keys import PKey
from repro.sim.config import AuthMode, KeyMgmtMode, SimConfig
from repro.sim.runner import run_simulation

from tests.conftest import make_packet


class StubHCA:
    def __init__(self, lid):
        self.lid = lid


@pytest.fixture
def keyed_setup():
    """Partition 1 keyed for nodes 1 and 2; node 9 outside."""
    rng = random.Random(0)
    directory = NodeDirectory.for_nodes([1, 2, 9], rng, bits=256)
    mgr = PartitionLevelKeyManager(directory, rng)
    mgr.create_partition_key(1, {1, 2})
    return mgr


class TestRegistry:
    def test_ids_are_nonzero_and_unique(self):
        assert 0 not in AUTH_FUNCTIONS
        assert len({f.ident for f in AUTH_FUNCTIONS.values()}) == len(AUTH_FUNCTIONS)

    def test_all_paper_algorithms_present(self):
        names = {f.name for f in AUTH_FUNCTIONS.values()}
        assert {"umac", "hmac-md5", "hmac-sha1", "pmac", "stream"} <= names

    @pytest.mark.parametrize(
        "mode",
        [AuthMode.UMAC, AuthMode.HMAC_MD5, AuthMode.HMAC_SHA1, AuthMode.PMAC, AuthMode.STREAM],
    )
    def test_mode_mapping(self, mode):
        func = auth_function_for(mode)
        assert func.ident == AUTH_FUNCTIONS[func.ident].ident

    def test_icrc_mode_rejected(self):
        with pytest.raises(ValueError):
            auth_function_for(AuthMode.ICRC)

    @pytest.mark.parametrize("ident", sorted(AUTH_FUNCTIONS))
    def test_compute_is_32bit_and_keyed(self, ident):
        func = AUTH_FUNCTIONS[ident]
        t1 = func.compute(b"k" * 16, b"message", 1)
        t2 = func.compute(b"k" * 16, b"message", 1)
        t3 = func.compute(b"j" * 16, b"message", 1)
        assert 0 <= t1 <= 0xFFFFFFFF
        assert t1 == t2
        assert t1 != t3


class TestIcrcService:
    def test_prepare_stamps_crc(self):
        svc = IcrcAuthService()
        p = make_packet()
        delay = svc.prepare(p, StubHCA(1))
        assert delay == 0
        assert p.bth.reserved_auth == 0
        assert ibacrc.verify_icrc(p)
        assert svc.verify(p, StubHCA(2))

    def test_detects_corruption_not_forgery(self):
        svc = IcrcAuthService()
        p = make_packet()
        svc.prepare(p, StubHCA(1))
        p.payload = b"tampered....."
        assert not svc.verify(p, StubHCA(2))
        # ...but an adversary just recomputes the CRC — no key needed:
        ibacrc.stamp(p)
        assert svc.verify(p, StubHCA(2))


class TestMacService:
    @pytest.mark.parametrize(
        "mode",
        [AuthMode.UMAC, AuthMode.HMAC_MD5, AuthMode.HMAC_SHA1, AuthMode.PMAC, AuthMode.STREAM],
    )
    def test_roundtrip_each_algorithm(self, keyed_setup, mode):
        svc = MacAuthService(auth_function_for(mode), keyed_setup)
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth == auth_function_for(mode).ident
        assert svc.verify(p, StubHCA(2))
        assert svc.tags_generated == 1
        assert svc.tags_verified == 1

    def test_tamper_detected(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        p.payload = b"evil-payload!"
        assert not svc.verify(p, StubHCA(2))
        assert svc.tags_rejected == 1

    def test_forged_plain_icrc_rejected(self, keyed_setup):
        """A forger with the P_Key but no secret can only send reserved=0 +
        CRC; an authenticating receiver must refuse it."""
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = ibacrc.stamp(make_packet(pkey=PKey(0x8001)))
        assert p.bth.reserved_auth == 0
        assert not svc.verify(p, StubHCA(2))

    def test_guessed_tag_rejected(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        func = auth_function_for(AuthMode.UMAC)
        p = make_packet(pkey=PKey(0x8001))
        p.bth.reserved_auth = func.ident
        rng = random.Random(1)
        rejected = 0
        for _ in range(64):
            p.icrc = rng.randrange(2**32)
            if not svc.verify(p, StubHCA(2)):
                rejected += 1
        assert rejected == 64  # 64 guesses at 2^-30 each: all fail

    def test_receiver_without_key_rejects(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        assert not svc.verify(p, StubHCA(9))  # node 9 never got the secret

    def test_sender_without_key_falls_back_to_crc(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8002))  # partition 2 has no key material
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth == 0
        assert ibacrc.verify_icrc(p)

    def test_mac_stage_delay(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup, mac_stage_delay_ns=7.0)
        p = make_packet(pkey=PKey(0x8001))
        delay = svc.prepare(p, StubHCA(1))
        assert delay == 7000  # ps
        assert svc.verify_delay_ps() == 7000


class TestOnDemand:
    """'The administrator can enable authentication only for that partition.'"""

    def test_covered_partition_gets_mac(self, keyed_setup):
        svc = MacAuthService(
            auth_function_for(AuthMode.UMAC), keyed_setup, on_demand_partitions={1}
        )
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth != 0
        assert svc.verify(p, StubHCA(2))

    def test_uncovered_partition_plain_icrc(self, keyed_setup):
        svc = MacAuthService(
            auth_function_for(AuthMode.UMAC), keyed_setup, on_demand_partitions={1}
        )
        p = make_packet(pkey=PKey(0x8002))
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth == 0
        assert svc.verify(p, StubHCA(2))  # ICRC path accepts it

    def test_selector_survives_variant_rewrites(self, keyed_setup):
        """Tag verifies even after a switch rewrites VL (variant field) —
        the invariant-coverage guarantee end to end."""
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8001), vl=0)
        svc.prepare(p, StubHCA(1))
        p.lrh.vl = 1  # in-flight remap
        assert svc.verify(p, StubHCA(2))


class TestAuthTagMemoInvalidation:
    """The prepare→verify MAC memo keys on the covered bytes' value: any
    covered-field tamper must force a real recomputation (and fail)."""

    def _service(self, func=AUTH_FUNCTIONS[3]):
        class FixedKey:
            def sender_key(self, hca, packet):
                return b"\x17" * 16, 0

            def receiver_key(self, hca, packet):
                return b"\x17" * 16

        return MacAuthService(func, FixedKey(), mac_stage_delay_ns=0.0)

    def test_variant_rewrite_keeps_tag_valid(self):
        svc = self._service()
        p = make_packet()
        svc.prepare(p, None)
        p.lrh.vl = 1  # in-flight variant rewrite
        assert svc.verify(p, None)

    def test_invariant_tamper_fails_despite_memo(self):
        svc = self._service()
        p = make_packet()
        svc.prepare(p, None)
        p.bth.pkey = PKey(0x8002)
        assert not svc.verify(p, None)

    def test_payload_tamper_fails_despite_memo(self):
        svc = self._service()
        p = make_packet(payload=b"honest bytes")
        svc.prepare(p, None)
        p.payload = b"forged bytes"
        assert not svc.verify(p, None)

    def test_untampered_verify_reuses_the_prepared_tag(self):
        """A verify of the untouched packet is answered from the memo (the
        covered bytes are rebuilt, equal but not identical); a tampered one
        recomputes."""
        from repro.core.auth import AuthFunction

        calls = []
        inner = AUTH_FUNCTIONS[3]

        def counting(key, message, nonce):
            calls.append(message)
            return inner.compute(key, message, nonce)

        svc = self._service(AuthFunction(inner.ident, "counting", counting))
        p = make_packet()
        svc.prepare(p, None)
        assert svc.verify(p, None)
        assert len(calls) == 1
        p.payload = b"forged bytes"
        assert not svc.verify(p, None)
        assert len(calls) == 2


class TestBoundCompute:
    """Per-key MAC instances live in the closure ``AuthFunction.bind``
    returns, so each run (each MacAuthService) owns its own."""

    @pytest.mark.parametrize("ident", sorted(AUTH_FUNCTIONS))
    def test_bound_compute_gives_the_registry_tags(self, ident):
        func = AUTH_FUNCTIONS[ident]
        bound = func.bind()
        for key in (b"k" * 16, b"j" * 16, b"k" * 16):
            assert bound(key, b"message", 3) == func.compute(key, b"message", 3)

    def test_each_bind_builds_its_own_instances(self):
        built = []
        func = AUTH_FUNCTIONS[1]

        def keyed(key):
            built.append(key)
            return func.keyed(key)

        counting = AuthFunction(func.ident, "counting", func.compute, keyed)
        first, second = counting.bind(), counting.bind()
        for _ in range(3):
            first(b"k" * 16, b"m", 1)
        second(b"k" * 16, b"m", 1)
        assert built == [b"k" * 16, b"k" * 16]


def _run_fingerprint(report):
    return {
        "counters": dict(sorted(report.counters.items())),
        "drops": dict(sorted(report.drops.items())),
        "stats": {n: [s.queuing_us, s.network_us, s.count] for n, s in sorted(report.stats.items())},
        "delivered": report.delivered,
        "events": report.events_processed,
    }


_QP_UMAC_RUN = dict(sim_time_us=40.0, warmup_us=0.0, seed=11, num_attackers=0)

_FRESH_PROCESS_RUN = """
import json
from repro.sim.config import AuthMode, KeyMgmtMode, SimConfig
from repro.sim.runner import run_simulation
from tests.core.test_auth import _QP_UMAC_RUN, _run_fingerprint
report = run_simulation(SimConfig(auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.QP, **_QP_UMAC_RUN))
print(json.dumps(_run_fingerprint(report)))
"""


class TestRunScopedKeySchedules:
    def test_runs_leave_no_module_level_state_and_match_fresh_processes(self):
        def live_umacs():
            gc.collect()
            return sum(isinstance(o, UMAC) for o in gc.get_objects())

        def module_dicts():
            return {n: len(v) for n, v in vars(auth).items() if isinstance(v, dict)}

        config = SimConfig(auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.QP, **_QP_UMAC_RUN)
        umacs, dicts = live_umacs(), module_dicts()
        reports = [run_simulation(config) for _ in range(2)]
        assert reports[0].counter("keymgmt.exchanges") > 0  # QP keys were minted
        assert live_umacs() == umacs
        assert module_dicts() == dicts

        repo = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(repo / "src"), str(repo)]))
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_RUN],
            capture_output=True, text=True, cwd=repo, env=env, check=True,
        )
        expected = json.loads(fresh.stdout)
        for report in reports:
            assert json.loads(json.dumps(_run_fingerprint(report))) == expected
