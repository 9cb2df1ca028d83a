"""Text file formats for keys and headers.

Key files open with a single parameter line

    BGW1 <backend params> n=<n>

followed by one hex-encoded element per line. Public key files carry the
roles g=, g<i>= (indices 1..n and n+2..2n; n+1 is structurally absent) and
v=; share files carry exactly one d=<i>:<hex> line. Header files are

    BGWHDR1
    C0=<hex>
    C1=<hex>
    S=<comma-separated indices>

Every reader is strict: non-ASCII bytes, a parameter line spelled other
than the writer spells it, unknown prefixes, missing or duplicated roles,
numbers that are not canonical decimals (no sign, no underscore, no
leading zero), hex that is not lowercase and unspaced, a user count beyond
setup's bound, and non-canonical element bytes are all rejected. What a
reader allocates grows with the size of the file it reads, never with a
number read from it.
"""

from pathlib import Path

from .errors import DecodeError, ParameterError
from .groups import BilinearGroup, make_group
from .kem import Header, PrivateKeyShare, PublicKey, RecipientSet, check_user_count

KEY_MAGIC = "BGW1"
HEADER_MAGIC = "BGWHDR1"


def _read_ascii_lines(path) -> list[str]:
    try:
        return Path(path).read_bytes().decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise DecodeError(f"{path} is not an ASCII text file") from None


def _decimal(text: str, what: str) -> int:
    """The value of a canonical ASCII decimal: digits only, no leading zero."""
    if text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise DecodeError(f"{what} {text!r} is not a canonical decimal")


def _decode_hex(value: str) -> bytes:
    try:
        data = bytes.fromhex(value)
    except ValueError:
        raise DecodeError(f"bad hex value {value!r}") from None
    if data.hex() != value:
        raise DecodeError(f"non-canonical hex value {value!r}")
    return data


def _format_params_line(group: BilinearGroup, n: int) -> str:
    return f"{KEY_MAGIC} {group.describe()} n={n}"


def _parse_params_line(line: str) -> tuple[BilinearGroup, int]:
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != KEY_MAGIC:
        raise DecodeError(f"bad key file magic line {line!r}")
    fields = {}
    for token in tokens[2:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise DecodeError(f"bad parameter token {token!r}")
        fields[key] = _decimal(value, f"parameter {key}")
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
        raise DecodeError(f"key file parameter line {line!r} is not canonical")
    return group, n


def _key_file_lines(path) -> list[str]:
    lines = _read_ascii_lines(path)
    if not lines:
        raise DecodeError("empty key file")
    return lines


def write_public_key(path, pk: PublicKey) -> None:
    lines = [_format_params_line(pk.group, pk.n)]
    lines.append(f"g={pk.group.encode(pk.g).hex()}")
    for i in sorted(pk.powers):
        lines.append(f"g{i}={pk.group.encode(pk.powers[i]).hex()}")
    lines.append(f"v={pk.group.encode(pk.v).hex()}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_public_key(path) -> PublicKey:
    lines = _key_file_lines(path)
    group, n = _parse_params_line(lines[0])
    # keys "g" and "v", and the index i of each g<i>
    seen = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        role, sep, value = line.partition("=")
        if not sep:
            raise DecodeError(f"malformed key file line {line!r}")
        if role == "g" or role == "v":
            key = role
        elif role.startswith("g"):
            key = _decimal(role[1:], "public key role index")
            if key == n + 1:
                raise DecodeError(f"public key must not contain the hole power g{n + 1}")
            if not 1 <= key <= 2 * n:
                raise DecodeError(f"role {role!r} outside g1..g{2 * n} in public key file")
        else:
            raise DecodeError(f"unknown role prefix {role!r} in public key file")
        if key in seen:
            raise DecodeError(f"duplicate role {role!r} in public key file")
        seen[key] = group.decode_g(_decode_hex(value))
    # every key is one of the 2n + 1 roles and none repeats, so a full
    # count means none is missing
    if len(seen) != 2 * n + 1:
        raise DecodeError(
            f"public key file is missing {2 * n + 1 - len(seen)} of its {2 * n + 1} roles"
        )
    g, v = seen.pop("g"), seen.pop("v")
    return PublicKey(n=n, group=group, g=g, powers=seen, v=v)


def write_share(path, group: BilinearGroup, n: int, share: PrivateKeyShare) -> None:
    lines = [
        _format_params_line(group, n),
        f"d={share.index}:{group.encode(share.d).hex()}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_share(path) -> tuple[BilinearGroup, int, PrivateKeyShare]:
    lines = _key_file_lines(path)
    group, n = _parse_params_line(lines[0])
    share = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if not line.startswith("d="):
            raise DecodeError(f"unknown role prefix in share file line {line!r}")
        if share is not None:
            raise DecodeError("share file contains more than one share")
        index_text, sep, value = line[2:].partition(":")
        if not sep:
            raise DecodeError(f"malformed share line {line!r}")
        index = _decimal(index_text, "share index")
        if not 1 <= index <= n:
            raise DecodeError(f"share index {index} outside 1..{n}")
        share = PrivateKeyShare(index=index, d=group.decode_g(_decode_hex(value)))
    if share is None:
        raise DecodeError("share file contains no share")
    return group, n, share


def write_header_file(path, group: BilinearGroup, header: Header,
                      recipients: RecipientSet) -> None:
    lines = [
        HEADER_MAGIC,
        f"C0={group.encode(header.c0).hex()}",
        f"C1={group.encode(header.c1).hex()}",
        "S=" + ",".join(str(i) for i in recipients),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_header_file(path, group: BilinearGroup) -> tuple[Header, RecipientSet]:
    lines = [line for line in _read_ascii_lines(path) if line.strip()]
    if len(lines) != 4 or lines[0] != HEADER_MAGIC:
        raise DecodeError("malformed header file")
    values = {}
    for line, role in zip(lines[1:], ("C0", "C1", "S")):
        prefix = role + "="
        if not line.startswith(prefix):
            raise DecodeError(f"expected {prefix}<...> line, got {line!r}")
        values[role] = line[len(prefix):]
    header = Header(
        c0=group.decode_g(_decode_hex(values["C0"])),
        c1=group.decode_g(_decode_hex(values["C1"])),
    )
    indices = [_decimal(text, "recipient index") for text in values["S"].split(",")]
    return header, RecipientSet(indices)
