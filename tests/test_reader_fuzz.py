"""Every reader of outside bytes fails only with DecodeError or ParameterError.

Each example takes a valid small file of one kind, flips, inserts or
truncates a few of its bytes, and feeds the result to that kind's reader.
The reader may accept the result (a flipped element byte can still encode
a valid element) but must not raise anything else.
"""

import random

import pytest
from hypothesis import given, strategies as st

from bgwkem import (
    BroadcastCiphertext,
    CurveParams,
    DecodeError,
    ParameterError,
    RecipientSet,
    encaps,
    make_curve_group,
    make_mock_group,
    seal_bytes,
    setup,
)
from bgwkem.fileformats import (
    read_header_file,
    read_public_key,
    read_share,
    write_header_file,
    write_public_key,
    write_share,
)

_GROUPS = {
    "mock": lambda: make_mock_group(101),
    "curve": lambda: make_curve_group(CurveParams(q=59, p=5)),
}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """backend -> (group, {kind: valid file bytes}, scratch file path)."""
    result = {}
    for backend, build in _GROUPS.items():
        group = build()
        directory = tmp_path_factory.mktemp(backend)
        rng = random.Random(7)
        pk, shares = setup(2 if backend == "mock" else 1, group, rng)
        recipients = RecipientSet([1])
        header, _ = encaps(recipients, pk, rng)
        write_public_key(directory / "pk", pk)
        write_share(directory / "sk", group, pk.n, shares[0])
        write_header_file(directory / "hdr", group, header, recipients)
        ct = seal_bytes(recipients, pk, b"fuzz", rng).to_bytes(group)
        files = {kind: (directory / kind).read_bytes() for kind in ("pk", "sk", "hdr")}
        files["ct"] = ct
        for kind, blob in files.items():  # every mutation starts from a valid input
            _read(kind, group, directory / "mutated", blob)
        result[backend] = (group, files, directory / "mutated")
    return result


def _read(kind, group, path, blob):
    if kind == "ct":
        return BroadcastCiphertext.from_bytes(group, blob)
    path.write_bytes(blob)
    if kind == "pk":
        return read_public_key(path)
    if kind == "sk":
        return read_share(path)
    return read_header_file(path, group)


@st.composite
def _mutated(draw, blob: bytes):
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "insert", "truncate")))
        if op == "flip" and out:
            out[draw(st.integers(0, len(out) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif op == "insert":
            out.insert(draw(st.integers(0, len(out))), draw(st.integers(0, 255)))
        else:
            del out[draw(st.integers(0, len(out))):]
    return bytes(out)


@pytest.mark.parametrize("backend", sorted(_GROUPS))
@pytest.mark.parametrize("kind", ["pk", "sk", "hdr", "ct"])
@given(data=st.data())
def test_mutated_input_raises_only_decode_or_parameter_errors(samples, backend, kind, data):
    group, files, path = samples[backend]
    blob = data.draw(_mutated(files[kind]), label="input")
    try:
        _read(kind, group, path, blob)
    except (DecodeError, ParameterError):
        pass

