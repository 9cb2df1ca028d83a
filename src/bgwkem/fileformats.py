"""Text file formats for keys and headers.

Key files open with a single parameter line

    BGW1 <backend params> n=<n>

followed by one hex-encoded element per line. Public key files carry the
roles g=, g<i>= (indices 1..n, then n+2..2n; n+1 is structurally absent)
and v=, in that order; share files carry exactly one d=<i>:<hex> line.
Header files are

    BGWHDR1
    C0=<hex>
    C1=<hex>
    S=<comma-separated indices, ascending>

Each file has one spelling, the one its writer writes: the writer's lines
in the writer's order, each ended by "\\n", no blank line, S= ascending.
Readers accept nothing else, so non-ASCII bytes, CRLF line ends, blank,
missing, repeated, reordered or unknown lines, a parameter line spelled
other than the writer spells it, numbers that are not canonical decimals
(no sign, no underscore, no leading zero), hex that is not lowercase and
unspaced, a user count beyond setup's bound, and non-canonical element
bytes are all rejected. What a reader allocates grows with the size of
the file it reads, never with a number read from it.
"""

from itertools import chain, zip_longest
from pathlib import Path

from .errors import DecodeError, ParameterError, SetError, quote
from .groups import BilinearGroup, make_group
from .kem import Header, PrivateKeyShare, PublicKey, RecipientSet, check_user_count

KEY_MAGIC = "BGW1"
HEADER_MAGIC = "BGWHDR1"


def _write_lines(path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _read_lines(path) -> list[str]:
    """The lines of an ASCII file in which each line, none empty, ends in "\\n"."""
    try:
        text = Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError:
        raise DecodeError(f"{path} is not an ASCII text file") from None
    if not text.endswith("\n"):
        raise DecodeError(f"{path} is empty or lacks its final newline")
    lines = text[:-1].split("\n")
    if "" in lines:
        raise DecodeError(f"{path} contains an empty line")
    return lines


def _decimal(text: str, what: str) -> int:
    """The value of a canonical ASCII decimal: digits only, no leading zero."""
    if text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise DecodeError(f"{what} {quote(text)} is not a canonical decimal")


def _decode_hex(value: str) -> bytes:
    try:
        data = bytes.fromhex(value)
    except ValueError:
        raise DecodeError(f"bad hex value {quote(value)}") from None
    if data.hex() != value:
        raise DecodeError(f"non-canonical hex value {quote(value)}")
    return data


def _format_params_line(group: BilinearGroup, n: int) -> str:
    return f"{KEY_MAGIC} {group.describe()} n={n}"


def _parse_params_line(line: str) -> tuple[BilinearGroup, int]:
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != KEY_MAGIC:
        raise DecodeError(f"bad key file magic line {quote(line)}")
    fields = {}
    for token in tokens[2:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise DecodeError(f"bad parameter token {quote(token)}")
        fields[key] = _decimal(value, f"parameter {quote(key)}")
    n = fields.pop("n", None)
    if n is None:
        raise DecodeError("key file is missing the user count")
    try:
        group = make_group(tokens[1], **fields)
        check_user_count(n, group.order)
    except ParameterError as exc:
        raise DecodeError(str(exc)) from None
    # one spelling per (group, n): this also rejects repeated, reordered
    # and differently spaced tokens
    if line != _format_params_line(group, n):
        raise DecodeError(f"key file parameter line {quote(line)} is not canonical")
    return group, n


def _public_key_roles(n: int):
    """The one (role, key) order of a public key file, for writer and reader:
    g, g1..gn, g(n+2)..g2n, v."""
    yield "g", "g"
    for i in chain(range(1, n + 1), range(n + 2, 2 * n + 1)):
        yield f"g{i}", i
    yield "v", "v"


def write_public_key(path, pk: PublicKey) -> None:
    elements = {"g": pk.g, "v": pk.v, **pk.powers}
    _write_lines(path, [_format_params_line(pk.group, pk.n)] + [
        f"{role}={pk.group.encode(elements[key]).hex()}" for role, key in _public_key_roles(pk.n)
    ])


def read_public_key(path) -> PublicKey:
    lines = _read_lines(path)
    group, n = _parse_params_line(lines[0])
    # counted before anything sized by n is built, so memory follows the file
    if len(lines) < 2 * n + 2:
        raise DecodeError(
            f"public key file is missing {2 * n + 2 - len(lines)} of its {2 * n + 1} roles"
        )
    elements = {}
    # a line past the last role is compared with None, which no role equals
    for line, (expected, key) in zip_longest(lines[1:], _public_key_roles(n),
                                             fillvalue=(None, None)):
        role, _, value = line.partition("=")
        if role != expected:
            if role == f"g{n + 1}":
                raise DecodeError(f"public key must not contain the hole power g{n + 1}")
            raise DecodeError(f"duplicate or misplaced role {quote(role)} in public key file")
        elements[key] = group.decode_g(_decode_hex(value))
    g, v = elements.pop("g"), elements.pop("v")
    return PublicKey(n=n, group=group, g=g, powers=elements, v=v)


def write_share(path, group: BilinearGroup, n: int, share: PrivateKeyShare) -> None:
    _write_lines(path, [
        _format_params_line(group, n),
        f"d={share.index}:{group.encode(share.d).hex()}",
    ])


def read_share(path) -> tuple[BilinearGroup, int, PrivateKeyShare]:
    lines = _read_lines(path)
    group, n = _parse_params_line(lines[0])
    if len(lines) != 2 or not lines[1].startswith("d="):
        raise DecodeError("a share file is its parameter line and one d=<i>:<hex> line")
    index_text, _, value = lines[1][2:].partition(":")
    index = _decimal(index_text, "share index")
    if not 1 <= index <= n:
        raise DecodeError(f"share index {index} outside 1..{n}")
    return group, n, PrivateKeyShare(index=index, d=group.decode_g(_decode_hex(value)))


def _recipients_line(recipients: RecipientSet) -> str:
    return "S=" + ",".join(str(i) for i in recipients)


def write_header_file(path, group: BilinearGroup, header: Header,
                      recipients: RecipientSet) -> None:
    _write_lines(path, [
        HEADER_MAGIC,
        f"C0={group.encode(header.c0).hex()}",
        f"C1={group.encode(header.c1).hex()}",
        _recipients_line(recipients),
    ])


def read_header_file(path, group: BilinearGroup) -> tuple[Header, RecipientSet]:
    lines = _read_lines(path)
    if len(lines) != 4 or lines[0] != HEADER_MAGIC:
        raise DecodeError("malformed header file")
    values = []
    for line, prefix in zip(lines[1:], ("C0=", "C1=", "S=")):
        if not line.startswith(prefix):
            raise DecodeError(f"expected {prefix}<...> line, got {quote(line)}")
        values.append(line[len(prefix):])
    c0, c1, indices = values
    header = Header(c0=group.decode_g(_decode_hex(c0)), c1=group.decode_g(_decode_hex(c1)))
    try:
        recipients = RecipientSet.parse(indices)
    except SetError as exc:
        raise DecodeError(str(exc)) from None
    # S= has one spelling: canonical decimals, ascending
    if _recipients_line(recipients) != lines[3]:
        raise DecodeError(f"recipient line {quote(lines[3])} is not canonical and ascending")
    return header, recipients
