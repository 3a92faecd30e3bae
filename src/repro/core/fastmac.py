"""Section 7's fast-authentication trade-off: digest only part of the
message.

"First method is trading-off of security strength and MAC computing speed.
The idea is to digest a small part of the message to make the
authentication tag.  This will increase forgery probability, but it will be
better than CRC."

:class:`PartialDigestFunction` wraps any registered
:class:`repro.core.auth.AuthFunction` and MACs a *sampled covering* of the
message: the headers-equivalent prefix always, then every k-th chunk of the
body.  Coverage (and therefore the forgery bound, via
:func:`repro.analysis.forgery.partial_digest_forgery`) is an explicit knob,
so the ablation benchmark can sweep speed against strength.

The sampled bytes are selected *position-deterministically* (not keyed):
this reproduces the paper's simple proposal and its weakness — the
adversary knows which bytes are uncovered — which the ablation quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.forgery import partial_digest_forgery
from repro.core.auth import AuthFunction

#: chunk granularity of the sampling (bytes).
CHUNK = 32
#: bytes always covered from the front (the header-bearing region).
PREFIX = 64


@dataclass(frozen=True)
class PartialDigestFunction:
    """An AuthFunction-compatible wrapper that digests a fraction of its
    input.

    :param inner: the real MAC doing the digesting.
    :param coverage: target fraction of the message to cover, in (0, 1].
    """

    inner: AuthFunction
    coverage: float
    ident: int = 6  #: BTH-Reserved registry slot for the partial mode.

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")

    @property
    def name(self) -> str:
        return f"partial-{self.inner.name}-{int(self.coverage * 100)}"

    def select(self, message: bytes) -> bytes:
        """The sampled covering actually digested."""
        if self.coverage >= 1.0 or len(message) <= PREFIX:
            return message
        head = message[:PREFIX]
        body = message[PREFIX:]
        chunks = [body[i : i + CHUNK] for i in range(0, len(body), CHUNK)]
        want = max(1, round(len(chunks) * self._body_fraction(len(message))))
        stride = max(1, len(chunks) // want)
        sampled = chunks[::stride][:want]
        # bind positions so swapping two uncovered-adjacent chunks of equal
        # content cannot reorder the covered ones silently
        pieces = [head]
        for idx, chunk in zip(range(0, len(chunks), stride), sampled):
            pieces.append(idx.to_bytes(4, "big"))
            pieces.append(chunk)
        pieces.append(len(message).to_bytes(4, "big"))
        return b"".join(pieces)

    def _body_fraction(self, total_len: int) -> float:
        """Body-chunk fraction needed to hit overall ``coverage``."""
        covered_target = self.coverage * total_len
        body_target = max(0.0, covered_target - PREFIX)
        body_len = total_len - PREFIX
        return min(1.0, body_target / body_len) if body_len > 0 else 1.0

    def covered_fraction(self, message: bytes) -> float:
        """Fraction of *message* bytes actually under the tag."""
        if self.coverage >= 1.0 or len(message) <= PREFIX:
            return 1.0
        body = message[PREFIX:]
        chunks = [body[i : i + CHUNK] for i in range(0, len(body), CHUNK)]
        want = max(1, round(len(chunks) * self._body_fraction(len(message))))
        stride = max(1, len(chunks) // want)
        covered_body = sum(len(c) for c in chunks[::stride][:want])
        return (PREFIX + covered_body) / len(message)

    def forgery_probability(self, message: bytes, tag_bits: int = 32) -> float:
        """Expected forgery odds for a uniformly-placed single-byte tamper —
        'better than CRC' but worse than full coverage."""
        return partial_digest_forgery(self.covered_fraction(message), tag_bits)

    # -- AuthFunction interface ------------------------------------------------

    def compute(self, key: bytes, message: bytes, nonce: int) -> int:
        return self.inner.compute(key, self.select(message), nonce)

    def bind(self) -> Callable[[bytes, bytes, int], int]:
        inner = self.inner.bind()
        return lambda key, message, nonce: inner(key, self.select(message), nonce)
