"""Benchmark workloads, the pinned parameter ladder and the output checks.

Every call into bgwkem goes through a module attribute (``kem.encaps``,
``cli.main``, ``groups.make_curve_group``) instead of a name imported into
this file, so that ``tracing.Tracer`` can swap in its wrappers for the
traced run.

Each workload is closed loop with one client: one op is a send, then a
receive by a seeded member of the recipient set, then a check of the
receive's output. ``span`` arguments are ``no_span`` in the untraced run
and ``Tracer.span`` in the traced run.
"""

import contextlib
import io
import statistics
import time
from pathlib import Path

from bgwkem import cli, fileformats, groups, hybrid, kem
from bgwkem.errors import AuthenticationError, MembershipError

# Pinned (q, p = (q + 1) / 4) ladder; no parameter search at run time, so
# runs on different commits time the same groups.
LADDER_Q = {
    "q16": 32971,
    "q64": 9223372036854782251,
    "q160": 730750818665451459101842416358141509827966272147,
    "q256": 57896044618658097711785492504343953926634992332820282019728792003956564988963,
}
MOCK_P = 2**61 - 1
LADDER_OPS = ("pair", "exp_g", "exp_gt", "mul_g", "decode_g")


def curve_params(q: int):
    return groups.CurveParams(q=q, p=(q + 1) // 4)


def check_ladder() -> None:
    """Raise ParameterError unless every pinned pair is a valid backend."""
    for q in LADDER_Q.values():
        curve_params(q)
    groups.make_mock_group(MOCK_P)


def no_span(name):
    return contextlib.nullcontext()


def draw_set(rng, n: int, size: int) -> list[int]:
    return sorted(rng.sample(range(1, n + 1), size))


class _CurveKeys:
    """Shared parts of the two in-memory curve workloads."""

    q: int
    n: int

    def __init__(self, rng, workdir):
        pass

    def set_size(self, rng) -> int:
        return rng.randint(1, self.n)

    def setup(self, rng, span):
        with span("setup"):
            with span("curve.make_group"):
                group = groups.make_curve_group(curve_params(self.q))
            return kem.setup(self.n, group, rng)

    def keys(self, state):
        pk, shares = state
        return pk, lambda j: shares[j - 1]


class KemCurve160(_CurveKeys):
    """encaps + encode_header, then decode_header + decaps, at 160 bits."""

    name = "kem-curve160"
    q = LADDER_Q["q160"]
    n = 32
    setup_reps = 3

    def payload_bytes(self, state) -> int:
        return state[0].group.gt_encoded_size

    def op(self, rng, state, span):
        pk, shares = state
        members = draw_set(rng, self.n, self.set_size(rng))
        i = rng.choice(members)
        t0 = time.perf_counter_ns()
        with span("send"):
            header, key = kem.encaps(members, pk, rng)
            wire = kem.encode_header(pk.group, header)
        t1 = time.perf_counter_ns()
        with span("recv"):
            got = kem.decaps(members, i, shares[i - 1],
                             kem.decode_header(pk.group, wire), pk)
        t2 = time.perf_counter_ns()
        ok = got == key and len(wire) == 2 * pk.group.g_encoded_size
        return t1 - t0, t2 - t1, ok


class Seal1MiBCurve64(_CurveKeys):
    """seal_bytes + to_bytes, then from_bytes + open_bytes, on 1 MiB."""

    name = "seal-1mib-curve64"
    q = LADDER_Q["q64"]
    n = 8
    setup_reps = 15
    payload_size = 1 << 20

    def __init__(self, rng, workdir):
        self.payload = rng.randbytes(self.payload_size)

    def payload_bytes(self, state) -> int:
        return self.payload_size

    def op(self, rng, state, span):
        pk, shares = state
        members = draw_set(rng, self.n, self.set_size(rng))
        i = rng.choice(members)
        t0 = time.perf_counter_ns()
        with span("send"):
            ct = hybrid.seal_bytes(members, pk, self.payload, rng)
            wire = ct.to_bytes(pk.group)
        t1 = time.perf_counter_ns()
        with span("recv"):
            got = hybrid.open_bytes(
                members, i, shares[i - 1],
                hybrid.BroadcastCiphertext.from_bytes(pk.group, wire), pk)
        t2 = time.perf_counter_ns()
        header_size = len(kem.encode_header(pk.group, ct.header))
        ok = got == self.payload and header_size == 2 * pk.group.g_encoded_size
        return t1 - t0, t2 - t1, ok


class CliMock1024:
    """`bgwkem encaps`, then `bgwkem decaps`, in-process on key files."""

    name = "cli-mock1024"
    n = 1024
    size = 512
    setup_reps = 15

    def __init__(self, rng, workdir):
        self.workdir = Path(workdir)

    def set_size(self, rng) -> int:
        return self.size

    def payload_bytes(self, state) -> int:
        return groups.make_mock_group(MOCK_P).gt_encoded_size

    def setup(self, rng, span):
        # Every set-up of a run writes over the same key files: creating
        # 1025 new files costs from 50 ms to 600 ms on a shared disk,
        # depending on the disk's load, which would drown the program's
        # own set-up cost.
        out = self.workdir / "keys"
        out.mkdir(exist_ok=True)
        argv = ["setup", "--users", str(self.n), "--backend", "mock",
                "--p", str(MOCK_P), "--seed", str(rng.getrandbits(32)),
                "--out", str(out)]
        with span("setup"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"bgwkem setup exited with {code}")
        return out

    def keys(self, out):
        pk = fileformats.read_public_key(out / "pk.bgw")
        return pk, lambda j: fileformats.read_share(out / f"user_{j}.sk")[2]

    def op(self, rng, out, span):
        members = draw_set(rng, self.n, self.size)
        i = rng.choice(members)
        pk, hdr, key = out / "pk.bgw", out / "op.hdr", out / "op.key"
        encaps_argv = ["encaps", "--pk", str(pk), "--set", ",".join(map(str, members)),
                       "--seed", str(rng.getrandbits(32)),
                       "--hdr-out", str(hdr), "--key-out", str(key)]
        decaps_argv = ["decaps", "--pk", str(pk), "--sk", str(out / f"user_{i}.sk"),
                       "--hdr", str(hdr)]
        stdout = io.StringIO()
        t0 = time.perf_counter_ns()
        with span("send"):
            encaps_code = cli.main(encaps_argv)
        t1 = time.perf_counter_ns()
        with span("recv"), contextlib.redirect_stdout(stdout):
            decaps_code = cli.main(decaps_argv)
        t2 = time.perf_counter_ns()
        ok = (encaps_code == 0 and decaps_code == 0
              and stdout.getvalue() == key.read_text())
        return t1 - t0, t2 - t1, ok


WORKLOADS = {w.name: w for w in (KemCurve160, Seal1MiBCurve64, CliMock1024)}


# -- checks made once per run, outside the timed ops -------------------

CHECKS = 3


def run_checks(workload, state, rng) -> list[str]:
    """Run the three checks once; return one message per failed check."""
    try:
        pk, share_of = workload.keys(state)
        group = pk.group
        members = draw_set(rng, pk.n, min(workload.set_size(rng), pk.n - 1))
        outsider = rng.choice([j for j in range(1, pk.n + 1) if j not in members])
        header, _ = kem.encaps(members, pk, rng)
    except Exception as exc:  # the run reports every failure, never aborts
        return [f"check set-up raised {exc!r}"] * CHECKS

    def header_size():
        size = len(kem.encode_header(group, header))
        if size != 2 * group.g_encoded_size:
            return f"header of |S|={len(members)} is {size} bytes"

    def non_member():
        try:
            kem.decaps(members, outsider, share_of(outsider), header, pk)
        except MembershipError:
            return None
        return f"decaps by non-member {outsider} did not raise MembershipError"

    def tamper():
        message = rng.randbytes(64)
        wire = bytearray(hybrid.seal_bytes(members, pk, message, rng).to_bytes(group))
        # one byte of body or tag; a header byte could fail decoding instead
        pos = rng.randrange(len(wire) - hybrid.TAG_SIZE - len(message), len(wire))
        wire[pos] ^= 1 << rng.randrange(8)
        member = rng.choice(members)
        try:
            ct = hybrid.BroadcastCiphertext.from_bytes(group, bytes(wire))
            hybrid.open_bytes(members, member, share_of(member), ct, pk)
        except AuthenticationError:
            return None
        return f"byte {pos} of a sealed file was flipped without AuthenticationError"

    failures = []
    for check in (header_size, non_member, tamper):
        try:
            failure = check()
        except Exception as exc:
            failure = f"{check.__name__} raised {exc!r}"
        if failure:
            failures.append(failure)
    return failures


# -- ladder sweep --------------------------------------------------------

def _per_call_seconds(fn, min_seconds: float) -> float:
    """Median per-call time over batches of at least a millisecond."""
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= 1e-3:
            break
        batch *= 4
    samples = [elapsed / batch]
    start = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def ladder_sweep(rng, min_seconds: float) -> dict[str, float]:
    """Per-call ms of each public group op at each ladder entry."""
    entries = [(label, groups.make_curve_group(curve_params(q)))
               for label, q in LADDER_Q.items()]
    entries.append(("mock61", groups.make_mock_group(MOCK_P)))
    result = {}
    for label, group in entries:
        g = group.generator()
        a = group.exp(g, rng.randrange(1, group.order))
        b = group.exp(g, rng.randrange(1, group.order))
        t = group.pair(a, b)
        k = rng.randrange(1, group.order)
        encoded = group.encode(a)
        ops = {
            "pair": lambda: group.pair(a, b),
            "exp_g": lambda: group.exp(a, k),
            "exp_gt": lambda: group.exp(t, k),
            "mul_g": lambda: group.mul(a, b),
            "decode_g": lambda: group.decode_g(encoded),
        }
        for op in LADDER_OPS:
            result[f"ladder.{label}.{op}_ms"] = 1e3 * _per_call_seconds(ops[op], min_seconds)
    return result
