"""Exception hierarchy shared by all bgwkem modules.

The CLI maps these onto stable exit codes: parameter/parse problems are
exit 2, membership refusals exit 3, authentication failures exit 4.
Messages quote outside input through quote, so an error about a huge
value stays short.
"""

# the most characters of a value that an error message quotes
_QUOTE_LIMIT = 64


def quote(value: str) -> str:
    """repr(value), or past _QUOTE_LIMIT characters that many and the length."""
    if len(value) <= _QUOTE_LIMIT:
        return repr(value)
    return f"{value[:_QUOTE_LIMIT]!r}... ({len(value)} characters)"


class BgwError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(BgwError):
    """Invalid mathematical parameters or violated preconditions."""


class SetError(ParameterError):
    """Invalid recipient set: empty, duplicated, or out-of-range indices."""


class UsageError(BgwError):
    """API misuse: mixed backends, mismatched share index, and similar."""


class MembershipError(BgwError):
    """Decapsulation attempted by a user outside the recipient set."""


class DecodeError(BgwError):
    """Malformed or non-canonical serialized element or file."""


class AuthenticationError(BgwError):
    """Ciphertext failed tag verification; no plaintext is released."""
