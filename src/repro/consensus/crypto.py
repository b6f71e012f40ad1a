"""Hashing and signatures for tamper-evidence (Section 4, Security).

Real deployments use x509 identities and ECDSA; what the evaluation
exercises is (a) hash chaining making tampering detectable and (b) the CPU
cost of sign/verify on the critical path. We use SHA-256 for hashes and
keyed HMAC-SHA256 as the signature primitive — cryptographically sound for
the trust model we simulate.
"""

from __future__ import annotations

import hashlib
import hmac


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Signer:
    """A node identity that can sign and verify payloads."""

    def __init__(self, identity: str, secret: bytes | None = None) -> None:
        self.identity = identity
        self._secret = secret or hashlib.sha256(f"key:{identity}".encode()).digest()

    def sign(self, payload: bytes | str) -> str:
        if isinstance(payload, str):
            payload = payload.encode()
        return hmac.new(self._secret, payload, hashlib.sha256).hexdigest()

    def verify(self, payload: bytes | str, signature: str) -> bool:
        return hmac.compare_digest(self.sign(payload), signature)
