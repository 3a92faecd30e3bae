"""Known answers for every production consumer of SHA-1, MD5 and HMAC.

The expected values below were recorded from the from-scratch SHA-1 / MD5 /
HMAC implementations, before production hashing moved to the standard
library.  They pin the bytes that keys, tags and Bloom positions are made
of, so any change of hash backend must reproduce them exactly.

The hypothesis properties at the bottom check the production functions
against the from-scratch oracles on arbitrary keys and messages.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bloom import bloom_positions
from repro.crypto import umac
from repro.crypto.hmac import hmac, hmac_md5, hmac_sha1
from repro.crypto.kdf import derive_key
from repro.crypto.md5 import MD5, md5
from repro.crypto.sha1 import SHA1, sha1
from repro.crypto.umac import UMAC

KEY = b"sixteen byte key"
NONCES = (0, 1, 2**40 + 5)


def pattern(n):
    return bytes((i * 131 + 7) & 0xFF for i in range(n))


#: message length -> UMAC(KEY).tag(pattern(length), nonce) for each of NONCES.
UMAC_TAGS = {
    0: (0xBE38A6D6, 0xA198D8B0, 0x38AD6579),
    1: (0x7367D8C6, 0x6CC7A6A0, 0xF5F21B69),
    8: (0x931D586C, 0x8CBD260A, 0x15889BC3),
    1023: (0x6C57D1BE, 0x73F7AFD8, 0xEAC21211),
    1024: (0xAAE7CE02, 0xB547B064, 0x2C720DAD),
    1025: (0x2D353E69, 0x3295400F, 0xABA0FDC6),
    2048: (0x472A50BE, 0x588A2ED8, 0xC1BF9311),
}


class TestUmac:
    @pytest.mark.parametrize("length", sorted(UMAC_TAGS))
    def test_tags(self, length):
        mac = UMAC(KEY)
        got = tuple(mac.tag(pattern(length), nonce) for nonce in NONCES)
        assert got == UMAC_TAGS[length]

    def test_pad_key_material(self):
        assert umac._derive(KEY, b"umac-pad", 20).hex() == (
            "a436274a517e303e9ca74c3b3b196d232f07580d"
        )

    def test_poly_key_material(self):
        assert umac._derive(KEY, b"umac-poly", 8).hex() == "09733aa345871b61"

    def test_nh_key_material(self):
        material = umac._derive(KEY, b"umac-nh", 1024)
        assert material[:24].hex() == "3420e798946827ccab4f411d2aab4d61640a5f6948cf40de"
        assert hashlib.sha256(material).hexdigest() == (
            "d62a4bbeb1fdbecc02dc512f3ff221ca7a9c83020f2587816f510a67a0447fae"
        )


DERIVED_KEY_40 = (
    "8b1cf5f00e97a651c542001f9e4169b7057d2e9f"
    "754abcdf11ec5075df2d5eb58e220aa61b4c5411"
)


@pytest.mark.parametrize("length", [16, 20, 40])
def test_derive_key(length):
    got = derive_key(b"master-secret", b"pkey:0x8001|epoch:0", length)
    assert got.hex() == DERIVED_KEY_40[: 2 * length]


@pytest.mark.parametrize(
    "key,salt,num_bits,num_hashes,expected",
    [
        (0x8001, b"port-salt", 1024, 4, (41, 496, 951, 382)),
        (0x7FFF, b"", 64, 3, (28, 5, 46)),
        (0xFFFF, b"\x00" * 16, 4096, 7, (3113, 3234, 3355, 3476, 3597, 3718, 3839)),
        (0x12345, b"s", 1000, 1, (374,)),
    ],
)
def test_bloom_positions(key, salt, num_bits, num_hashes, expected):
    assert bloom_positions(key, salt, num_bits, num_hashes) == expected


#: key length -> (HMAC-MD5, HMAC-SHA1) of LONG_KEY_MESSAGE; every key is
#: longer than the 64-byte block, so it is hashed first (RFC 2104 §2).
LONG_KEY_MESSAGE = b"Larger Than Block-Size Key"
LONG_KEY_TAGS = {
    65: ("e9cbc6c85eac26c6cad634dc84a2b52d", "961e6575107f5df07f6405668b5fc5cce767cea4"),
    100: ("b34d2778ba10965eea37e83f0a489212", "ec7e54e31a0422c995482ffd4227d72c21817130"),
    200: ("a70cbcf6cb22294566d97d304537a9e9", "926584f482f87b2985c012f11b17b4649c43014d"),
}


@pytest.mark.parametrize("key_len", sorted(LONG_KEY_TAGS))
@pytest.mark.parametrize(
    "md5_fn,sha1_fn",
    [
        (hmac_md5, hmac_sha1),
        (lambda k, m: hmac(k, m, MD5), lambda k, m: hmac(k, m, SHA1)),
    ],
    ids=["production", "oracle"],
)
def test_long_key_hmacs(key_len, md5_fn, sha1_fn):
    key = bytes((i * 37 + 11) & 0xFF for i in range(key_len))
    want_md5, want_sha1 = LONG_KEY_TAGS[key_len]
    assert md5_fn(key, LONG_KEY_MESSAGE).hex() == want_md5
    assert sha1_fn(key, LONG_KEY_MESSAGE).hex() == want_sha1


# -- production == oracle ---------------------------------------------------

hmac_keys = st.binary(min_size=0, max_size=200)
messages = st.binary(min_size=0, max_size=300)


@given(hmac_keys, messages)
@settings(max_examples=60)
def test_hmac_sha1_equals_oracle(key, message):
    assert hmac_sha1(key, message) == hmac(key, message, SHA1)


@given(hmac_keys, messages)
@settings(max_examples=60)
def test_hmac_md5_equals_oracle(key, message):
    assert hmac_md5(key, message) == hmac(key, message, MD5)


@given(messages)
@settings(max_examples=60)
def test_sha1_equals_oracle(message):
    assert sha1(message) == SHA1(message).digest()


@given(messages)
@settings(max_examples=60)
def test_md5_equals_oracle(message):
    assert md5(message) == MD5(message).digest()
