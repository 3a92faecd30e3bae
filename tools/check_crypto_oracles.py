#!/usr/bin/env python
"""Lint: the from-scratch crypto oracles stay out of production code.

Production CRC-32, MD5, SHA-1 and HMAC are the standard library's C code
(``crc32``, ``md5``, ``sha1``, ``hmac_md5``, ``hmac_sha1``).  The pure-Python
versions are kept only as test oracles and as Table 4 specimens:

* ``SHA1`` and ``MD5`` — the from-scratch hash classes;
* ``hmac`` — the generic RFC 2104 construction over those classes;
* ``crc32_pure`` and ``crc32_bitwise`` — the table and bit-serial CRCs.

This checker fails CI when a module under ``src/repro`` outside ``crypto/``
imports one of them from ``repro.crypto``, which would put a slow reference
version back on a run path.  The one exception is
``analysis/performance.py``, which times the specimens for Table 4.

Usage::

    python tools/check_crypto_oracles.py            # checks src/repro
    python tools/check_crypto_oracles.py PATH...    # explicit files/dirs
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Names in ``repro.crypto`` that are oracles, not production functions.
ORACLES = frozenset({"SHA1", "MD5", "hmac", "crc32_pure", "crc32_bitwise"})

#: Paths (relative to the ``repro`` package) allowed to import them.
ALLOWED = ("analysis/performance.py",)


def _exempt(path: Path) -> bool:
    posix = path.resolve().as_posix()
    return "/repro/crypto/" in posix or any(posix.endswith("/repro/" + a) for a in ALLOWED)


def find_oracle_imports(path: Path) -> list[tuple[int, str]]:
    """Return (line, name) for every oracle imported from ``repro.crypto`` in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module != "repro.crypto" and not node.module.startswith("repro.crypto."):
            continue
        hits.extend((node.lineno, alias.name) for alias in node.names if alias.name in ORACLES)
    return hits


def check(paths: list[Path]) -> int:
    files: list[Path] = []
    for p in paths:
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    failures = 0
    for f in files:
        if _exempt(f):
            continue
        for line, name in find_oracle_imports(f):
            failures += 1
            print(
                f"{f}:{line}: imports the from-scratch oracle '{name}' — production "
                f"code uses the stdlib-backed crc32/md5/sha1/hmac_md5/hmac_sha1",
                file=sys.stderr,
            )
    return failures


def main(argv: list[str]) -> int:
    if argv:
        paths = [Path(a) for a in argv]
    else:
        paths = [Path(__file__).resolve().parent.parent / "src" / "repro"]
    failures = check(paths)
    if failures:
        print(f"\n{failures} oracle import(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
