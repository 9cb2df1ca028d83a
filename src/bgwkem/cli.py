"""Command-line front door: key lifecycle, broadcast simulation, analysis.

Subcommands: setup, encaps, decaps, seal, open, simulate, analyze. All
randomness is driven by --seed (or the BGW_SEED environment variable; the
flag wins), so every run is reproducible byte for byte. Exit codes are a
stable contract: 0 success, 2 parameter or parse failure, 3 membership
refusal, 4 authentication failure.
"""

import argparse
import os
import random
import sys
from pathlib import Path

from .analyzer import decimal_string, security_report
from .errors import (
    AuthenticationError,
    DecodeError,
    MembershipError,
    ParameterError,
    UsageError,
)
from .fileformats import (
    read_header_file,
    read_public_key,
    read_share,
    write_header_file,
    write_public_key,
    write_share,
)
from .groups import make_group
from .hybrid import BroadcastCiphertext, open_bytes, seal_bytes
from .kem import RecipientSet, decaps, encaps, encode_header, setup

SEED_ENV_VAR = "BGW_SEED"


def _rng_from(args) -> random.Random:
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ParameterError(
                    f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                ) from None
    return random.Random(seed)


def _group_from(args):
    given = {"q": args.q, "p": args.p}
    return make_group(args.backend, **{k: v for k, v in given.items() if v is not None})


def _matching_share(pk_path, sk_path):
    pk = read_public_key(pk_path)
    group, n, share = read_share(sk_path)
    if group != pk.group or n != pk.n:
        raise UsageError("share file does not match the public key parameters")
    return pk, share


def cmd_setup(args) -> int:
    group = _group_from(args)
    pk, shares = setup(args.users, group, _rng_from(args))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_public_key(outdir / "pk.bgw", pk)
    for share in shares:
        write_share(outdir / f"user_{share.index}.sk", group, pk.n, share)
    return 0


def cmd_encaps(args) -> int:
    pk = read_public_key(args.pk)
    recipients = RecipientSet.parse(args.set)
    header, key = encaps(recipients, pk, _rng_from(args))
    write_header_file(args.hdr_out, pk.group, header, recipients)
    Path(args.key_out).write_text(pk.group.encode(key.k).hex() + "\n")
    return 0


def cmd_decaps(args) -> int:
    pk, share = _matching_share(args.pk, args.sk)
    header, recipients = read_header_file(args.hdr, pk.group)
    key = decaps(recipients, share.index, share, header, pk)
    print(pk.group.encode(key.k).hex())
    return 0


def cmd_seal(args) -> int:
    pk = read_public_key(args.pk)
    recipients = RecipientSet.parse(args.set)
    plaintext = Path(args.infile).read_bytes()
    ct = seal_bytes(recipients, pk, plaintext, _rng_from(args))
    Path(args.out).write_bytes(ct.to_bytes(pk.group))
    return 0


def cmd_open(args) -> int:
    pk, share = _matching_share(args.pk, args.sk)
    recipients = RecipientSet.parse(args.set)
    ct = BroadcastCiphertext.from_bytes(pk.group, Path(args.infile).read_bytes())
    plaintext = open_bytes(recipients, share.index, share, ct, pk)
    Path(args.out).write_bytes(plaintext)
    return 0


def cmd_simulate(args) -> int:
    group = _group_from(args)
    rng = _rng_from(args)
    pk, shares = setup(args.users, group, rng)
    recipients = RecipientSet.parse(args.set)
    header, key = encaps(recipients, pk, rng)
    print("user  in-set  outcome")
    for share in shares:
        try:
            recovered = decaps(recipients, share.index, share, header, pk)
            outcome = "OK" if recovered == key else "MISMATCH"
        except MembershipError:
            outcome = "REFUSED"
        flag = "yes" if share.index in recipients else "no"
        print(f"{share.index:4d}  {flag:<6}  {outcome}")
    print(f"header-bytes={len(encode_header(group, header))}")
    return 0


def cmd_analyze(args) -> int:
    report = security_report(args.q, args.p)
    scale = "yes" if report.reaches_reference_working_size else "no"
    print(f"base field q        : {report.q}")
    print(f"subgroup order p    : {report.p}")
    print(f"embedding degree k  : {report.k}")
    print(f"input size          : {report.base_bits} bits (base field)")
    print(f"working size        : {report.working_bits} bits (degree-k extension)")
    print(f"at 1024-bit working scale (160-bit-input reference): {scale}")
    print()
    print(f"q={report.q}")
    print(f"p={report.p}")
    print(f"k={report.k}")
    print(f"base_bits={report.base_bits}")
    print(f"working_bits={report.working_bits}")
    print(f"divisibility_witness={decimal_string(report.divisibility_witness)}")
    print(f"reaches_reference_working_size={str(report.reaches_reference_working_size).lower()}")
    return 0


def _add_backend_flags(sub) -> None:
    sub.add_argument("--backend", choices=("mock", "curve"), default="mock")
    sub.add_argument("--p", type=int, default=None,
                     help="prime order of the pairing groups")
    sub.add_argument("--q", type=int, default=None,
                     help="base field prime (curve backend only)")


def _add_seed_flag(sub) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed; falls back to ${SEED_ENV_VAR}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgwkem",
        description="Broadcast key encapsulation with desk-scale pairing backends",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("setup", help="generate pk.bgw and user_<i>.sk files")
    sub.add_argument("--users", type=int, required=True)
    _add_backend_flags(sub)
    _add_seed_flag(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_setup)

    sub = subs.add_parser("encaps", help="encapsulate a session key")
    sub.add_argument("--pk", required=True)
    sub.add_argument("--set", required=True, help="recipient indices, e.g. 1,3")
    _add_seed_flag(sub)
    sub.add_argument("--hdr-out", required=True)
    sub.add_argument("--key-out", required=True)
    sub.set_defaults(func=cmd_encaps)

    sub = subs.add_parser("decaps", help="recover the session key")
    sub.add_argument("--pk", required=True)
    sub.add_argument("--sk", required=True)
    sub.add_argument("--hdr", required=True)
    sub.set_defaults(func=cmd_decaps)

    sub = subs.add_parser("seal", help="encrypt a file to a recipient set")
    sub.add_argument("--pk", required=True)
    sub.add_argument("--set", required=True)
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", required=True)
    _add_seed_flag(sub)
    sub.set_defaults(func=cmd_seal)

    sub = subs.add_parser("open", help="decrypt a sealed file")
    sub.add_argument("--pk", required=True)
    sub.add_argument("--set", required=True)
    sub.add_argument("--sk", required=True)
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_open)

    sub = subs.add_parser("simulate", help="full-broadcast decryption matrix")
    sub.add_argument("--users", type=int, required=True)
    sub.add_argument("--set", required=True)
    _add_backend_flags(sub)
    _add_seed_flag(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("analyze", help="embedding degree and size report")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except MembershipError as exc:
        print(f"error: not a recipient: {exc}", file=sys.stderr)
        return 3
    except AuthenticationError as exc:
        print(f"error: authentication failure: {exc}", file=sys.stderr)
        return 4
    except (ParameterError, DecodeError, UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
