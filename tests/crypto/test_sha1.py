"""SHA-1 against FIPS 180-1 vectors and hashlib.

The vector classes run against the production :func:`sha1` (hashlib) and,
through their ``Oracle`` subclasses, against the from-scratch :class:`SHA1`."""

import hashlib

import pytest

from repro.crypto.sha1 import SHA1, sha1

FIPS_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
]


def oracle_sha1(data):
    return SHA1(data).digest()


class TestFipsVectors:
    digest = staticmethod(sha1)

    @pytest.mark.parametrize("message,expected", FIPS_VECTORS)
    def test_vector(self, message, expected):
        assert self.digest(message).hex() == expected

    def test_million_a(self):
        # FIPS 180-1 appendix: one million repetitions of "a".
        assert self.digest(b"a" * 1_000_000).hex() == "34aa973cd4c4daa4f61eeb2bdbad27316534016f"


class TestFipsVectorsOracle(TestFipsVectors):
    digest = staticmethod(oracle_sha1)


class TestAgainstHashlib:
    digest = staticmethod(sha1)

    @pytest.mark.parametrize("size", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000, 4096])
    def test_block_boundaries(self, size):
        data = bytes((i * 7) & 0xFF for i in range(size))
        assert self.digest(data) == hashlib.sha1(data).digest()


class TestAgainstHashlibOracle(TestAgainstHashlib):
    digest = staticmethod(oracle_sha1)


class TestIncremental:
    def test_chunked_equals_oneshot(self):
        data = bytes(range(256)) * 10
        h = SHA1()
        for off in range(0, len(data), 23):
            h.update(data[off : off + 23])
        assert h.digest() == sha1(data)

    def test_digest_idempotent(self):
        h = SHA1(b"state")
        assert h.digest() == h.digest()
        h.update(b" more")
        assert h.digest() == sha1(b"state more")

    def test_copy(self):
        h = SHA1(b"abc")
        clone = h.copy()
        h.update(b"def")
        assert clone.digest() == sha1(b"abc")
        assert h.digest() == sha1(b"abcdef")

    def test_metadata(self):
        h = SHA1()
        assert h.digest_size == 20
        assert h.block_size == 64
        assert len(h.digest()) == 20
