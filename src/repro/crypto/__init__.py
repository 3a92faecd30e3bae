"""Cryptographic primitives used by the InfiniBand security layer.

Everything in this package is implemented in pure Python against the public
specifications (RFC 1321 MD5, FIPS 180-1 SHA-1, RFC 2104 HMAC, the UMAC
construction of Black et al., IEEE 802.3 CRC-32, textbook RSA, an RC4-class
stream cipher with a Lai/Taylor-style integrity check, PMAC over XTEA, and
AES-CMAC).

Each concept has one production implementation.  For CRC-32, MD5, SHA-1
and HMAC it is the standard library's C code (``zlib.crc32``, ``hashlib``,
``hmac.digest``) behind :func:`crc32`, :func:`md5`, :func:`sha1`,
:func:`hmac_md5` and :func:`hmac_sha1`; the from-scratch ``crc32_pure``,
``MD5``, ``SHA1`` and generic :func:`hmac` produce the same bytes and are
kept as the oracles those functions are tested against and as the specimens
Table 4's measured ordering compares.  ``tools/check_crypto_oracles.py``
keeps them out of production code.

The paper proposes replacing the InfiniBand Invariant CRC with a 32-bit
Message Authentication Code; these modules supply both the CRC baseline and
the candidate MACs of Table 4, plus the Section-7 alternatives (stream-cipher
MAC, PMAC).

Security note: these implementations exist to *reproduce a research system*.
They are not constant-time and must not be used to protect real traffic.
"""

from repro.crypto.crc32 import crc32, CRC32
from repro.crypto.md5 import md5
from repro.crypto.sha1 import sha1
from repro.crypto.hmac import hmac, hmac_md5, hmac_sha1
from repro.crypto.umac import UMAC, umac32
from repro.crypto.rsa import RSAKeyPair, generate_keypair
from repro.crypto.kdf import derive_key
from repro.crypto.xtea import XTEA
from repro.crypto.pmac import PMAC
from repro.crypto.stream import StreamCipher, stream_mac
from repro.crypto.aes import AES128
from repro.crypto.cmac import AESCMAC, aes_cmac

__all__ = [
    "crc32",
    "CRC32",
    "md5",
    "sha1",
    "hmac",
    "hmac_md5",
    "hmac_sha1",
    "UMAC",
    "umac32",
    "RSAKeyPair",
    "generate_keypair",
    "derive_key",
    "XTEA",
    "PMAC",
    "StreamCipher",
    "stream_mac",
    "AES128",
    "AESCMAC",
    "aes_cmac",
]
