"""The crypto-oracle lint: production code stays on the stdlib-backed
hashes, and the checker must actually catch an oracle import."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_crypto_oracles.py"


def run_checker(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *map(str, args)],
        capture_output=True, text=True,
    )


def write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestRepoIsClean:
    def test_src_repro_imports_no_oracles(self):
        proc = run_checker()
        assert proc.returncode == 0, proc.stderr


class TestCheckerCatchesRegressions:
    def test_each_oracle_import_fails(self, tmp_path):
        bad = write(
            tmp_path, "repro/core/bad.py",
            "from repro.crypto.sha1 import SHA1\n"
            "from repro.crypto.md5 import MD5 as Slow\n"
            "from repro.crypto.hmac import hmac, hmac_sha1\n"
            "from repro.crypto.crc32 import crc32_pure, crc32_bitwise\n",
        )
        proc = run_checker(bad)
        assert proc.returncode == 1
        for name in ("SHA1", "MD5", "hmac'", "crc32_pure", "crc32_bitwise"):
            assert name in proc.stderr
        assert "5 oracle import(s)" in proc.stderr

    def test_package_level_import_fails(self, tmp_path):
        bad = write(tmp_path, "repro/sim/bad.py", "from repro.crypto import hmac\n")
        proc = run_checker(bad)
        assert proc.returncode == 1
        assert "bad.py:1" in proc.stderr

    def test_production_functions_pass(self, tmp_path):
        ok = write(
            tmp_path, "repro/core/ok.py",
            "import hmac\n"  # the stdlib module, not the oracle
            "from hmac import digest\n"
            "from repro.crypto.hmac import hmac_md5, hmac_sha1, tag32\n"
            "from repro.crypto.md5 import md5\n"
            "from repro.crypto.sha1 import sha1\n"
            "from repro.crypto.crc32 import crc32, CRC32\n",
        )
        proc = run_checker(ok)
        assert proc.returncode == 0, proc.stderr

    def test_crypto_package_and_table4_module_are_exempt(self, tmp_path):
        text = "from repro.crypto.sha1 import SHA1\n"
        write(tmp_path, "repro/crypto/kdf.py", text)
        write(tmp_path, "repro/analysis/performance.py", text)
        assert run_checker(tmp_path).returncode == 0
        write(tmp_path, "repro/analysis/charts.py", text)
        proc = run_checker(tmp_path)
        assert proc.returncode == 1
        assert "charts.py" in proc.stderr
