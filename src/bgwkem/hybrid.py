"""Hybrid encryption on top of the broadcast KEM.

Two layers. The GT layer turns the KEM into encryption directly: the
ciphertext is c = M * K for a GT-valued message M, and any recipient
divides out the recovered K. The byte layer wraps arbitrary plaintexts in
a deterministic DEM, encrypt-then-MAC. The DEM key, a domain-separated
SHA-256 of the session key's canonical encoding, yields two keys by
HMAC-SHA256 under the labels "enc" and "mac". The body is the plaintext
XORed with a SHAKE-256 keystream over enc_key || nonce. The sealed layout
is header || 16-byte nonce || 8-byte length || body || 32-byte tag, and the
tag is HMAC-SHA256 under mac_key over all that precedes it, header
included: a changed header that still yields the same session key, which
happens for about one (key, set, user) in p, is refused like any other
change. open verifies the tag before a single plaintext byte is produced.
"""

import hashlib
import hmac
from dataclasses import dataclass

from .errors import AuthenticationError, DecodeError, UsageError
from .groups import BilinearGroup, GTElement
from .kem import (
    Header,
    PrivateKeyShare,
    PublicKey,
    SessionKey,
    decaps,
    decode_header,
    encaps,
    encode_header,
)

DEM_DOMAIN_TAG = b"BGW-KEM-DEM-v1"
NONCE_SIZE = 16
TAG_SIZE = 32
_LENGTH_FIELD = 8


@dataclass(frozen=True)
class GTCiphertext:
    """Header plus the blinded GT message c = M * K."""

    header: Header
    c: GTElement


@dataclass(frozen=True)
class BroadcastCiphertext:
    """Header plus DEM-wrapped bytes; body is exactly plaintext-sized."""

    header: Header
    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self, group: BilinearGroup) -> bytes:
        """Wire layout: header || nonce || 8-byte length || body || tag."""
        return b"".join((
            encode_header(group, self.header),
            self.nonce,
            len(self.body).to_bytes(_LENGTH_FIELD, "big"),
            self.body,
            self.tag,
        ))

    @classmethod
    def from_bytes(cls, group: BilinearGroup, data: bytes) -> "BroadcastCiphertext":
        hdr_size = 2 * group.g_encoded_size
        fixed = hdr_size + NONCE_SIZE + _LENGTH_FIELD
        if len(data) < fixed + TAG_SIZE:
            raise DecodeError(f"ciphertext truncated at {len(data)} bytes")
        header = decode_header(group, data[:hdr_size])
        nonce = data[hdr_size : hdr_size + NONCE_SIZE]
        length = int.from_bytes(data[hdr_size + NONCE_SIZE : fixed], "big")
        if len(data) != fixed + length + TAG_SIZE:
            raise DecodeError(
                f"ciphertext length {len(data)} does not match body length {length}"
            )
        return cls(
            header=header,
            nonce=nonce,
            body=data[fixed : fixed + length],
            tag=data[fixed + length :],
        )


def encrypt_gt(recipients, pk: PublicKey, message: GTElement, rng) -> GTCiphertext:
    """Encrypt a caller-supplied GT element to the recipient set."""
    if not isinstance(message, GTElement):
        raise UsageError(f"message must be a GT element, got {type(message).__name__}")
    header, key = encaps(recipients, pk, rng)
    return GTCiphertext(header=header, c=message * key.k)


def decrypt_gt(recipients, i: int, share: PrivateKeyShare, ct: GTCiphertext,
               pk: PublicKey) -> GTElement:
    """Recover the GT message as recipient i."""
    key = decaps(recipients, i, share, ct.header, pk)
    return ct.c / key.k


def derive_dem_key(key: SessionKey) -> bytes:
    """32-byte DEM key: SHA-256 over the tagged canonical key encoding."""
    encoded = key.k.group.encode(key.k)
    return hashlib.sha256(DEM_DOMAIN_TAG + encoded).digest()


def _dem_keys(key: SessionKey) -> tuple[bytes, bytes]:
    """The encryption key and the MAC key, both derived from the DEM key."""
    dem_key = derive_dem_key(key)
    return hmac.digest(dem_key, b"enc", "sha256"), hmac.digest(dem_key, b"mac", "sha256")


def _xor_keystream(enc_key: bytes, nonce: bytes, data: bytes) -> bytes:
    # the keystream bytes are freed inside from_bytes, before the XOR allocates
    stream = int.from_bytes(hashlib.shake_256(enc_key + nonce).digest(len(data)), "big")
    mixed = int.from_bytes(data, "big") ^ stream
    return mixed.to_bytes(len(data), "big")


def _tag(mac_key: bytes, header: bytes, nonce: bytes, body: bytes) -> bytes:
    """HMAC-SHA256 over header || nonce || 8-byte length || body."""
    length = len(body).to_bytes(_LENGTH_FIELD, "big")
    mac = hmac.new(mac_key, header + nonce + length, "sha256")
    mac.update(body)
    return mac.digest()


def seal_bytes(recipients, pk: PublicKey, plaintext: bytes, rng) -> BroadcastCiphertext:
    """Encrypt and authenticate arbitrary bytes to the recipient set."""
    header, key = encaps(recipients, pk, rng)
    enc_key, mac_key = _dem_keys(key)
    nonce = rng.randbytes(NONCE_SIZE)
    body = _xor_keystream(enc_key, nonce, plaintext)
    tag = _tag(mac_key, encode_header(pk.group, header), nonce, body)
    return BroadcastCiphertext(header=header, nonce=nonce, body=body, tag=tag)


def open_bytes(recipients, i: int, share: PrivateKeyShare,
               ct: BroadcastCiphertext, pk: PublicKey) -> bytes:
    """Verify and decrypt; raises AuthenticationError on any tampering."""
    key = decaps(recipients, i, share, ct.header, pk)
    enc_key, mac_key = _dem_keys(key)
    # the header encoding is canonical, so these are the bytes that were sent
    header = encode_header(pk.group, ct.header)
    if not hmac.compare_digest(_tag(mac_key, header, ct.nonce, ct.body), ct.tag):
        raise AuthenticationError("ciphertext tag verification failed")
    return _xor_keystream(enc_key, ct.nonce, ct.body)
