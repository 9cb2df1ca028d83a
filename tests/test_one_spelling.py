"""Each text file has one spelling, the one its writer writes.

The writers' public key, share and header files on both backends read back
equal to what was written. Any edit that keeps every line but changes
their order, count, separators or ends makes the reader raise DecodeError.
"""

import random

import pytest
from hypothesis import example, given, strategies as st

from bgwkem import (
    CurveParams,
    DecodeError,
    RecipientSet,
    encaps,
    make_curve_group,
    make_mock_group,
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
    "curve": lambda: make_curve_group(CurveParams(q=103, p=13)),
}
_N = 4


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """backend -> (group, {kind: (file text, what it holds)}, scratch path)."""
    result = {}
    for backend, build in _GROUPS.items():
        group = build()
        directory = tmp_path_factory.mktemp(backend)
        rng = random.Random(3)
        pk, shares = setup(_N, group, rng)
        recipients = RecipientSet([1, 3, 4])
        header, _ = encaps(recipients, pk, rng)
        write_public_key(directory / "pk", pk)
        write_share(directory / "sk", group, pk.n, shares[1])
        write_header_file(directory / "hdr", group, header, recipients)
        files = {
            "pk": pk,
            "sk": (group, pk.n, shares[1]),
            "hdr": (header, recipients),
        }
        texts = {kind: (directory / kind).read_bytes().decode("ascii") for kind in files}
        result[backend] = (group, {kind: (texts[kind], value) for kind, value in files.items()},
                           directory / "edited")
    return result


def _read(kind, group, path):
    if kind == "pk":
        return read_public_key(path)
    if kind == "sk":
        return read_share(path)
    return read_header_file(path, group)


@st.composite
def _edited(draw, text: str) -> str:
    lines = text.split("\n")[:-1]
    positions = st.integers(0, len(lines) - 1)
    edit = draw(st.sampled_from(("swap", "duplicate", "empty line",
                                 "no final newline", "crlf")), label="edit")
    if edit == "swap":
        i, j = draw(st.lists(positions, min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[draw(positions)])
    elif edit == "empty line":
        lines.insert(draw(st.integers(0, len(lines))), "")
    elif edit == "no final newline":
        return text[:-1]
    else:
        # some of the line ends, at least one, become CRLF
        crlf = draw(st.sets(positions, min_size=1))
        return "".join(line + ("\r\n" if k in crlf else "\n")
                       for k, line in enumerate(lines))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("backend", sorted(_GROUPS))
@pytest.mark.parametrize("kind", ["pk", "sk", "hdr"])
def test_written_files_read_back_equal(written, backend, kind):
    group, files, path = written[backend]
    text, value = files[kind]
    path.write_text(text, newline="\n")
    assert _read(kind, group, path) == value


@pytest.mark.parametrize("backend", sorted(_GROUPS))
@pytest.mark.parametrize("kind", ["pk", "sk", "hdr"])
@given(data=st.data())
def test_every_other_spelling_is_refused(written, backend, kind, data):
    group, files, path = written[backend]
    text = data.draw(_edited(files[kind][0]), label="file")
    path.write_text(text, newline="\n")
    with pytest.raises(DecodeError):
        _read(kind, group, path)


@pytest.mark.parametrize("backend", sorted(_GROUPS))
@given(indices=st.lists(st.integers(1, _N), min_size=2, unique=True))
@example(indices=[4, 3, 1])
def test_recipients_out_of_ascending_order_are_refused(written, backend, indices):
    group, files, path = written[backend]
    text = files["hdr"][0]
    head, _, _ = text.rpartition("S=")
    path.write_text(head + "S=" + ",".join(map(str, indices)) + "\n", newline="\n")
    if indices == sorted(indices):
        assert read_header_file(path, group)[1] == RecipientSet(indices)
    else:
        with pytest.raises(DecodeError, match="ascending"):
            read_header_file(path, group)

