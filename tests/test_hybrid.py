import hashlib
import hmac
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bgwkem import (
    AuthenticationError,
    BroadcastCiphertext,
    DecodeError,
    MembershipError,
    UsageError,
    decrypt_gt,
    derive_dem_key,
    encaps,
    encrypt_gt,
    open_bytes,
    seal_bytes,
    setup,
    make_mock_group,
)
from bgwkem.hybrid import DEM_DOMAIN_TAG, NONCE_SIZE
from conftest import gt_element

# SHA-256("BGW-KEM-DEM-v1" || encode(GT trace 40 at mock p=101)), computed
# once from the canonical encoding b"\x74\x28" and frozen.
PINNED_DEM_KEY_HEX = "8d0f763969024333510b2b4bce3fa7ef93ca78ef12deed99a1d3922cb293e8e4"

# seal_bytes({1, 2}, pk, b"broadcast me") at mock p=101, n=2 (alpha=2,
# gamma=3), t=5 and nonce 00..0f: header (5, 45) || nonce || length 12 ||
# body || tag, computed once and frozen.
PINNED_SEALED_HEX = (
    "6d056d2d"
    "000102030405060708090a0b0c0d0e0f"
    "000000000000000c"
    "7d8e50b86f2fcdf63db77df2"
    "66cac724da57ab683c38524235c5fc0c098b1e536b33fccb13818534d8698f29"
)


@pytest.fixture
def state(mock101, scripted):
    pk, shares = setup(2, mock101, scripted([2, 3]))
    return mock101, pk, shares


class TestGtLayer:
    def test_worked_example(self, state, scripted):
        group, pk, shares = state
        ct = encrypt_gt({1, 2}, pk, gt_element(group, 7), scripted([5]))
        assert ct.c.value == 47  # 7 + 40 in trace arithmetic
        assert decrypt_gt({1, 2}, 1, shares[0], ct, pk).value == 7

    def test_identity_message_yields_session_key(self, state, scripted):
        group, pk, shares = state
        ct = encrypt_gt({1, 2}, pk, group.identity_gt(), scripted([5]))
        assert ct.c.value == 40
        assert decrypt_gt({1, 2}, 2, shares[1], ct, pk) == group.identity_gt()

    def test_wraparound_trace(self, state, scripted):
        group, pk, shares = state
        ct = encrypt_gt({1, 2}, pk, gt_element(group, 61), scripted([5]))
        assert ct.c.value == 0  # 61 + 40 = 101 = 0 mod 101
        assert decrypt_gt({1, 2}, 2, shares[1], ct, pk).value == 61

    def test_round_trip_all_messages(self, state):
        group, pk, shares = state
        rng = random.Random(4)
        for m in range(101):
            message = gt_element(group, m)
            ct = encrypt_gt({1, 2}, pk, message, rng)
            for i in (1, 2):
                assert decrypt_gt({1, 2}, i, shares[i - 1], ct, pk) == message

    def test_round_trip_all_messages_four_users(self, mock101):
        rng = random.Random(44)
        pk, shares = setup(4, mock101, rng)
        recipients = {1, 3, 4}
        for m in range(101):
            message = gt_element(mock101, m)
            ct = encrypt_gt(recipients, pk, message, rng)
            for i in recipients:
                assert decrypt_gt(recipients, i, shares[i - 1], ct, pk) == message

    def test_matches_kem_with_same_seed(self, state):
        group, pk, _ = state
        message = gt_element(group, 33)
        header, key = encaps({1, 2}, pk, random.Random(12))
        ct = encrypt_gt({1, 2}, pk, message, random.Random(12))
        assert ct.header == header
        assert ct.c == message * key.k

    def test_rejects_non_gt_message(self, state):
        group, pk, _ = state
        with pytest.raises(UsageError):
            encrypt_gt({1, 2}, pk, group.generator(), random.Random(0))

    def test_membership_error_propagates(self, state, scripted):
        group, pk, shares = state
        ct = encrypt_gt({1}, pk, gt_element(group, 9), scripted([5]))
        with pytest.raises(MembershipError):
            decrypt_gt({1}, 2, shares[1], ct, pk)


class TestDemKey:
    def test_deterministic(self, state, scripted):
        _, pk, _ = state
        _, k1 = encaps({1, 2}, pk, scripted([5]))
        _, k2 = encaps({1, 2}, pk, scripted([5]))
        assert derive_dem_key(k1) == derive_dem_key(k2)

    def test_distinct_keys_distinct_dem_keys(self, state, scripted):
        group, pk, _ = state
        _, k1 = encaps({1, 2}, pk, scripted([5]))
        _, k2 = encaps({1, 2}, pk, scripted([6]))
        assert derive_dem_key(k1) != derive_dem_key(k2)
        # hash oracle on the two encodings
        for key in (k1, k2):
            expected = hashlib.sha256(
                DEM_DOMAIN_TAG + key.k.group.encode(key.k)
            ).digest()
            assert derive_dem_key(key) == expected

    def test_pinned_vector(self, state, scripted):
        _, pk, _ = state
        _, key = encaps({1, 2}, pk, scripted([5]))  # K is GT trace 40
        assert derive_dem_key(key).hex() == PINNED_DEM_KEY_HEX
        assert len(derive_dem_key(key)) == 32


class TestByteMode:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1000])
    def test_round_trip_lengths(self, state, length):
        _, pk, shares = state
        plaintext = bytes(range(256)) * (length // 256 + 1)
        plaintext = plaintext[:length]
        ct = seal_bytes({1, 2}, pk, plaintext, random.Random(length))
        assert len(ct.body) == length
        assert len(ct.nonce) == 16
        assert len(ct.tag) == 32
        for i in (1, 2):
            assert open_bytes({1, 2}, i, shares[i - 1], ct, pk) == plaintext

    def test_single_bit_flip_rejected(self, state):
        _, pk, shares = state
        ct = seal_bytes({1, 2}, pk, b"attack at dawn", random.Random(8))
        for byte_index in range(len(ct.body)):
            for bit in (0x01, 0x80):
                body = bytearray(ct.body)
                body[byte_index] ^= bit
                tampered = BroadcastCiphertext(
                    header=ct.header, nonce=ct.nonce, body=bytes(body), tag=ct.tag
                )
                with pytest.raises(AuthenticationError):
                    open_bytes({1, 2}, 1, shares[0], tampered, pk)

    def test_tag_tamper_rejected(self, state):
        _, pk, shares = state
        ct = seal_bytes({1, 2}, pk, b"payload", random.Random(9))
        tampered = BroadcastCiphertext(
            header=ct.header,
            nonce=ct.nonce,
            body=ct.body,
            tag=bytes([ct.tag[0] ^ 1]) + ct.tag[1:],
        )
        with pytest.raises(AuthenticationError):
            open_bytes({1, 2}, 2, shares[1], tampered, pk)

    def test_sha256_oracle_matches_hashlib(self):
        for length in (0, 1, 55, 56, 63, 64, 65, 119, 120, 200):
            data = random.Random(length).randbytes(length)
            assert oracles.sha256(data) == hashlib.sha256(data).digest()
        message, suffix = b"k" * 48 + b"body", b"chosen"
        glued = message + oracles.sha256_padding(len(message)) + suffix
        assert (oracles.sha256_extend(hashlib.sha256(message).digest(), len(message), suffix)
                == hashlib.sha256(glued).digest())

    def test_length_extension_forgery_rejected(self, state):
        # A tag SHA-256(dem_key || nonce || body) extends to body || glue ||
        # extra without the key; the forged file must still fail to open.
        group, pk, shares = state
        ct = seal_bytes({1, 2}, pk, b"pay alice 10", random.Random(14))
        signed = 32 + NONCE_SIZE + len(ct.body)
        extra = b"0000000"
        forged = BroadcastCiphertext(
            header=ct.header,
            nonce=ct.nonce,
            body=ct.body + oracles.sha256_padding(signed) + extra,
            tag=oracles.sha256_extend(ct.tag, signed, extra),
        )
        forged = BroadcastCiphertext.from_bytes(group, forged.to_bytes(group))
        with pytest.raises(AuthenticationError):
            open_bytes({1, 2}, 1, shares[0], forged, pk)

    # 136 bytes is the SHAKE-256 rate
    @pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 1000])
    def test_body_and_tag_match_hand_computation(self, state, length):
        _, pk, _ = state
        plaintext = random.Random(length).randbytes(length)
        _, key = encaps({1, 2}, pk, random.Random(200 + length))
        ct = seal_bytes({1, 2}, pk, plaintext, random.Random(200 + length))
        dem_key = derive_dem_key(key)
        enc_key = hmac.new(dem_key, b"enc", hashlib.sha256).digest()
        mac_key = hmac.new(dem_key, b"mac", hashlib.sha256).digest()
        stream = hashlib.shake_256(enc_key + ct.nonce).digest(length)
        assert ct.body == bytes(a ^ b for a, b in zip(plaintext, stream))
        assert ct.tag == hmac.new(mac_key, ct.nonce + ct.body, hashlib.sha256).digest()

    def test_one_mib_peaks_below_three_and_a_half_payloads(self, state):
        # Seal and open each hold the payload as bytes and as integers; the
        # keystream bytes must be gone before the XOR allocates its result.
        _, pk, shares = state
        plaintext = random.Random(15).randbytes(1 << 20)
        ct = seal_bytes({1, 2}, pk, plaintext, random.Random(16))
        for run in (
            lambda: seal_bytes({1, 2}, pk, plaintext, random.Random(16)),
            lambda: open_bytes({1, 2}, 1, shares[0], ct, pk),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.5 * (1 << 20), peak

    def test_non_member_cannot_open(self, state):
        _, pk, shares = state
        ct = seal_bytes({1}, pk, b"members only", random.Random(10))
        with pytest.raises(MembershipError):
            open_bytes({1}, 2, shares[1], ct, pk)

    @settings(max_examples=25, deadline=None)
    @given(plaintext=st.binary(max_size=300), seed=st.integers(0, 2**16))
    def test_round_trip_property(self, plaintext, seed):
        group = make_mock_group(101)
        rng = random.Random(seed)
        pk, shares = setup(2, group, rng)
        ct = seal_bytes({1, 2}, pk, plaintext, rng)
        assert open_bytes({1, 2}, 1, shares[0], ct, pk) == plaintext


class TestWireFormat:
    def test_pinned_sealed_bytes(self, state, scripted):
        group, pk, _ = state
        rng = scripted([5], [bytes(range(NONCE_SIZE))])
        data = seal_bytes({1, 2}, pk, b"broadcast me", rng).to_bytes(group)
        assert data.hex() == PINNED_SEALED_HEX

    def test_round_trip(self, state):
        group, pk, _ = state
        ct = seal_bytes({1, 2}, pk, b"x" * 100, random.Random(11))
        data = ct.to_bytes(group)
        assert BroadcastCiphertext.from_bytes(group, data) == ct
        hdr_size = 2 * group.g_encoded_size
        assert len(data) == hdr_size + 16 + 8 + 100 + 32

    def test_truncation_rejected(self, state):
        group, pk, _ = state
        data = seal_bytes({1, 2}, pk, b"abc", random.Random(12)).to_bytes(group)
        with pytest.raises(DecodeError):
            BroadcastCiphertext.from_bytes(group, data[:-1])
        with pytest.raises(DecodeError):
            BroadcastCiphertext.from_bytes(group, data[:5])

    def test_length_field_mismatch_rejected(self, state):
        group, pk, _ = state
        data = bytearray(seal_bytes({1, 2}, pk, b"abc", random.Random(13)).to_bytes(group))
        offset = 2 * group.g_encoded_size + 16
        data[offset:offset + 8] = (5).to_bytes(8, "big")
        with pytest.raises(DecodeError):
            BroadcastCiphertext.from_bytes(group, bytes(data))
