import random
import tracemalloc

import pytest

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


@pytest.fixture(params=["mock", "curve"])
def keypair(request):
    if request.param == "mock":
        group = make_mock_group(101)
    else:
        group = make_curve_group(CurveParams(q=103, p=13))
    pk, shares = setup(3, group, random.Random(17))
    return group, pk, shares


def test_public_key_round_trip(tmp_path, keypair):
    group, pk, _ = keypair
    path = tmp_path / "pk.bgw"
    write_public_key(path, pk)
    restored = read_public_key(path)
    assert restored == pk
    assert restored.group == group
    assert hash(restored) == hash(pk)
    assert len({pk, restored}) == 1


def test_share_round_trip(tmp_path, keypair):
    group, pk, shares = keypair
    for share in shares:
        path = tmp_path / f"user_{share.index}.sk"
        write_share(path, group, pk.n, share)
        rgroup, rn, rshare = read_share(path)
        assert (rgroup, rn, rshare) == (group, pk.n, share)


def test_header_round_trip(tmp_path, keypair):
    group, pk, _ = keypair
    recipients = RecipientSet([1, 3])
    header, _ = encaps(recipients, pk, random.Random(23))
    path = tmp_path / "hdr"
    write_header_file(path, group, header, recipients)
    rheader, rset = read_header_file(path, group)
    assert rheader == header
    assert rset == recipients


def test_public_key_file_never_contains_hole_index(tmp_path, keypair):
    group, pk, _ = keypair
    path = tmp_path / "pk.bgw"
    write_public_key(path, pk)
    text = path.read_text()
    assert f"g{pk.n + 1}=" not in text
    roles = [line.split("=")[0] for line in text.splitlines()[1:]]
    assert len(roles) == 2 * pk.n + 1


def _mock_pk_file(tmp_path):
    group = make_mock_group(101)
    pk, _ = setup(2, group, random.Random(1))
    path = tmp_path / "pk.bgw"
    write_public_key(path, pk)
    return path


def test_reject_hole_line(tmp_path):
    path = _mock_pk_file(tmp_path)
    lines = path.read_text().splitlines()
    g1_value = next(l for l in lines if l.startswith("g1=")).split("=")[1]
    path.write_text("\n".join(lines + [f"g3={g1_value}"]) + "\n")
    with pytest.raises(DecodeError, match="hole"):
        read_public_key(path)


def test_reject_unknown_prefix(tmp_path):
    path = _mock_pk_file(tmp_path)
    path.write_text(path.read_text() + "w=6d01\n")
    with pytest.raises(DecodeError):
        read_public_key(path)


def test_reject_share_line_in_public_key(tmp_path):
    path = _mock_pk_file(tmp_path)
    path.write_text(path.read_text() + "d=1:6d01\n")
    with pytest.raises(DecodeError):
        read_public_key(path)


def test_reject_duplicate_role(tmp_path):
    path = _mock_pk_file(tmp_path)
    lines = path.read_text().splitlines()
    v_line = next(l for l in lines if l.startswith("v="))
    path.write_text("\n".join(lines + [v_line]) + "\n")
    with pytest.raises(DecodeError, match="duplicate"):
        read_public_key(path)


def test_reject_missing_role(tmp_path):
    path = _mock_pk_file(tmp_path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("v=")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DecodeError, match="missing"):
        read_public_key(path)


def test_reject_non_positive_user_count(tmp_path):
    path = _mock_pk_file(tmp_path)
    path.write_text(path.read_text().replace("n=2", "n=0", 1))
    with pytest.raises(DecodeError):
        read_public_key(path)


def test_reject_bad_magic(tmp_path):
    path = _mock_pk_file(tmp_path)
    path.write_text(path.read_text().replace("BGW1", "BGW9", 1))
    with pytest.raises(DecodeError):
        read_public_key(path)


def test_reject_unknown_backend(tmp_path):
    path = _mock_pk_file(tmp_path)
    path.write_text(path.read_text().replace("mock", "weird", 1))
    with pytest.raises(DecodeError):
        read_public_key(path)


def test_reject_bad_hex(tmp_path):
    path = _mock_pk_file(tmp_path)
    path.write_text(path.read_text().replace("g1=", "g1=zz", 1))
    with pytest.raises(DecodeError):
        read_public_key(path)


def test_share_index_bounds(tmp_path):
    group = make_mock_group(101)
    pk, shares = setup(2, group, random.Random(2))
    path = tmp_path / "user.sk"
    write_share(path, group, pk.n, shares[0])
    path.write_text(path.read_text().replace("d=1:", "d=9:"))
    with pytest.raises(DecodeError):
        read_share(path)


def test_header_file_rejects_truncation(tmp_path):
    group = make_mock_group(101)
    pk, _ = setup(2, group, random.Random(3))
    recipients = RecipientSet([1, 2])
    header, _ = encaps(recipients, pk, random.Random(4))
    path = tmp_path / "hdr"
    write_header_file(path, group, header, recipients)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the S= line
    with pytest.raises(DecodeError):
        read_header_file(path, group)


def test_header_file_is_canonical_ascending(tmp_path):
    group = make_mock_group(101)
    pk, _ = setup(3, group, random.Random(5))
    recipients = RecipientSet([3, 1])
    header, _ = encaps(recipients, pk, random.Random(6))
    path = tmp_path / "hdr"
    write_header_file(path, group, header, recipients)
    assert "S=1,3" in path.read_text()


def _replace_once(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("role", ["g01", "g+1", "g 1", "g1_0", "g\u0661", "g", "g0", "g5", "gg1"])
def test_reject_non_canonical_or_out_of_range_role(tmp_path, role):
    path = _mock_pk_file(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = role + "=" + lines[2].partition("=")[2]  # was g1=
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DecodeError):
        read_public_key(path)


@pytest.mark.parametrize("old, new", [
    ("n=2", "n=+2"),
    ("n=2", "n=02"),
    ("n=2", "n=\u0662"),
    ("p=101", "p=1_01"),
    ("p=101", "p=0101"),
    ("p=101", "p=-101"),
    ("g1=6d", "g1= 6d"),
    ("g1=6d", "g1=6D"),
    ("v=6d", "v=6d "),
    ("BGW1 mock", "BGW1\tmock"),
    ("mock p=101", "mock  p=101"),
    ("p=101 n=2", "n=2 p=101"),
    ("n=2\n", "n=2 \n"),
    ("p=101", "p=103 p=101"),
])
def test_reject_non_canonical_numbers_and_hex(tmp_path, old, new):
    path = _mock_pk_file(tmp_path)
    _replace_once(path, old, new)
    with pytest.raises(DecodeError):
        read_public_key(path)


def test_reject_reordered_curve_parameters(tmp_path):
    pk, _ = setup(1, make_curve_group(CurveParams(q=59, p=5)), random.Random(1))
    path = tmp_path / "pk.bgw"
    write_public_key(path, pk)
    assert read_public_key(path) == pk
    _replace_once(path, "q=59 p=5", "p=5 q=59")
    with pytest.raises(DecodeError, match="not canonical"):
        read_public_key(path)


@pytest.mark.parametrize("old, new", [("d=1:", "d=+1:"), ("d=1:", "d=01:"), ("d=1:6d", "d=1: 6d")])
def test_reject_non_canonical_share_line(tmp_path, old, new):
    group = make_mock_group(101)
    pk, shares = setup(2, group, random.Random(2))
    path = tmp_path / "user.sk"
    write_share(path, group, pk.n, shares[0])
    _replace_once(path, old, new)
    with pytest.raises(DecodeError):
        read_share(path)


@pytest.mark.parametrize("old, new", [("S=1,2", "S=+1,2"), ("S=1,2", "S=1, 2"),
                                      ("S=1,2", "S=01,2"), ("S=1,2", "S=1,2,"),
                                      ("C0=6d", "C0=6D"), ("S=1,2", "S=2,1"),
                                      ("S=1,2", "S=1,1"), ("S=1,2", "S=0,2")])
def test_reject_non_canonical_header_file(tmp_path, old, new):
    group = make_mock_group(101)
    pk, _ = setup(2, group, random.Random(3))
    recipients = RecipientSet([1, 2])
    header, _ = encaps(recipients, pk, random.Random(4))
    path = tmp_path / "hdr"
    write_header_file(path, group, header, recipients)
    _replace_once(path, old, new)
    with pytest.raises(DecodeError):
        read_header_file(path, group)


def test_every_reader_rejects_non_ascii_bytes(tmp_path):
    group = make_mock_group(101)
    pk, shares = setup(2, group, random.Random(5))
    recipients = RecipientSet([1, 2])
    header, _ = encaps(recipients, pk, random.Random(6))
    files = {"pk": tmp_path / "pk.bgw", "sk": tmp_path / "user.sk", "hdr": tmp_path / "hdr"}
    write_public_key(files["pk"], pk)
    write_share(files["sk"], group, pk.n, shares[0])
    write_header_file(files["hdr"], group, header, recipients)
    readers = {"pk": read_public_key, "sk": read_share,
               "hdr": lambda path: read_header_file(path, group)}
    for name, path in files.items():
        clean = path.read_bytes()
        for junk in (b"\xff", b"\xc3\xa9"):  # not UTF-8; UTF-8 but not ASCII
            path.write_bytes(clean + junk + b"\n")
            with pytest.raises(DecodeError, match="ASCII"):
                readers[name](path)


def test_reject_user_count_beyond_setup_bound(tmp_path):
    # setup at p=101 serves at most n=49 (2n < p - 1); the reader must
    # stop at the parameter line, not report 100+ missing roles
    path = _mock_pk_file(tmp_path)
    _replace_once(path, "n=2", "n=60")
    with pytest.raises(DecodeError, match="2n=120"):
        read_public_key(path)
    _replace_once(path, "n=60", "n=50")
    with pytest.raises(DecodeError, match="2n=100"):
        read_public_key(path)
    _replace_once(path, "n=50", "n=49")
    with pytest.raises(DecodeError, match="missing"):
        read_public_key(path)


def test_claimed_user_count_allocates_nothing(tmp_path):
    # a one-line file may claim any n that setup's bound allows; the reader
    # must reject it without allocating anything sized by n
    path = tmp_path / "pk.bgw"
    path.write_text("BGW1 mock p=2305843009213693951 n=100000\n")
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="missing"):
            read_public_key(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_reject_decimal_longer_than_int_converts(tmp_path):
    # 5000 digits is past int()'s default limit of 4300 on string conversion
    group = make_mock_group(101)
    pk, shares = setup(2, group, random.Random(2))
    path = tmp_path / "user.sk"
    write_share(path, group, pk.n, shares[0])
    _replace_once(path, "d=1:", f"d={'1' * 5000}:")
    with pytest.raises(DecodeError, match=r"share index '1{64}'\.\.\. \(5000 characters\) "
                                          "is not a canonical decimal"):
        read_share(path)
