"""Spans recorded from outside the program, and the per-layer metrics.

``Tracer.installed()`` wraps only public callables of bgwkem:

- the kem, hybrid, fileformats and primes functions, in every bgwkem module
  that holds them, so names imported elsewhere (``hybrid.encaps``,
  ``cli.read_public_key``) are caught too;
- ``BroadcastCiphertext.to_bytes`` and ``from_bytes``;
- the group factories, whose wrapper instruments each group *instance*
  (``pair``, ``exp``, ``mul``, ``inverse``, ``decode_g``), which also catches
  calls made through element operators such as ``a * b``.

Private names (``_miller``, ``_keystream``, ...) are never wrapped, so
rewrites of the layers' insides do not break the trace. Spans are kept in
memory (name, start, end, parent) until the run ends; a span's self time is
its duration minus the durations of its children.
"""

import os
import sys
import time
from array import array
from contextlib import contextmanager

from bgwkem import fileformats, groups, hybrid, kem, primes
from bgwkem.groups import CurveGroup, GTElement

_FUNCTIONS = (
    [(kem, f) for f in ("setup", "encaps", "decaps", "encode_header", "decode_header")]
    + [(hybrid, f) for f in ("seal_bytes", "open_bytes", "derive_dem_key")]
    + [(fileformats, f) for f in ("write_public_key", "write_share", "write_header_file")]
    + [(primes, "is_prime")]
)
_READERS = ("read_public_key", "read_share", "read_header_file")
_GROUP_METHODS = ("pair", "decode_g")
_KINDED_GROUP_METHODS = ("exp", "mul", "inverse")  # span name gets _g or _gt


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans of one traced slice, held in parallel arrays indexed by span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.bytes_read = 0
        self._undo = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.start[idx] = t0
        self._stack.pop()

    def _call(self, nid, fn, args, kwargs):
        idx = self._open(nid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, t0)

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0)

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            return self._call(nid, fn, args, kwargs)
        return traced

    def _wrap_kinded(self, name: str, fn):
        g_id, gt_id = self._id(name + "_g"), self._id(name + "_gt")

        def traced(x, *args):
            return self._call(gt_id if isinstance(x, GTElement) else g_id, fn, (x,) + args, {})
        return traced

    def _wrap_reader(self, name: str, fn):
        nid = self._id(name)

        def traced(path, *args):
            result = self._call(nid, fn, (path,) + args, {})
            self.bytes_read += os.path.getsize(path)
            return result
        return traced

    def _wrap_factory(self, fn):
        def traced(*args):
            return self.instrument(fn(*args))
        return traced

    def instrument(self, group):
        """Wrap the public ops of one group instance."""
        backend = "curve" if isinstance(group, CurveGroup) else "mock"
        for method in _GROUP_METHODS:
            setattr(group, method, self.wrap(f"{backend}.{method}", getattr(group, method)))
        for method in _KINDED_GROUP_METHODS:
            setattr(group, method, self._wrap_kinded(f"{backend}.{method}", getattr(group, method)))
        return group

    def _patch_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "bgwkem" and not name.startswith("bgwkem."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        for module, fn in _FUNCTIONS:
            original = getattr(module, fn)
            self._patch_everywhere(original, self.wrap(f"{_layer(module)}.{fn}", original))
        for fn in _READERS:
            original = getattr(fileformats, fn)
            self._patch_everywhere(original, self._wrap_reader(f"fileformats.{fn}", original))
        for fn in ("make_curve_group", "make_mock_group"):
            original = getattr(groups, fn)
            self._patch_everywhere(original, self._wrap_factory(original))
        ct = hybrid.BroadcastCiphertext
        self._patch_attr(ct, "to_bytes", self.wrap("hybrid.to_bytes", ct.__dict__["to_bytes"]))
        self._patch_attr(ct, "from_bytes", classmethod(
            self.wrap("hybrid.from_bytes", ct.__dict__["from_bytes"].__func__)))
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def aggregate(self) -> dict[tuple[str, str], list[int]]:
        """(root span name, span name) -> [calls, total ns, self ns]."""
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0] * n
        root = list(range(n))
        for i in range(n):  # a parent is always recorded before its children
            p = self.parent[i]
            if p >= 0:
                child_time[p] += durations[i]
                root[i] = root[p]
        stats = {}
        for i in range(n):
            key = (self.names[self.name_id[root[i]]], self.names[self.name_id[i]])
            entry = stats.setdefault(key, [0, 0, 0])
            entry[0] += 1
            entry[1] += durations[i]
            entry[2] += durations[i] - child_time[i]
        return stats


# Per-layer metrics of the traced run. Each is measured on the workload
# whose time it should move (see README.md):
#   name: (workload, scope, span, stat, unit)
# scope "op" is send + recv; stat "calls" is calls per op (per set-up for
# scope "setup"); "mean"/"self_mean" are per call; "total" sums all calls;
# "share" is self time over the scope's wall time; "MiBps" is the workload
# payload per second of self time; "bytes_read" is the size of the files
# given to the fileformats readers, per op.
_KEM, _SEAL, _CLI = "kem-curve160", "seal-1mib-curve64", "cli-mock1024"
LAYER_METRICS = {
    "curve.pair.calls_per_op": (_KEM, "op", "curve.pair", "calls", "count"),
    "curve.pair.ms_per_call": (_KEM, "op", "curve.pair", "mean", "ms"),
    "curve.pair.self_share": (_KEM, "op", "curve.pair", "share", "ratio"),
    "curve.exp_g.calls_per_op": (_KEM, "op", "curve.exp_g", "calls", "count"),
    "curve.exp_g.ms_per_call": (_KEM, "op", "curve.exp_g", "mean", "ms"),
    "curve.exp_g.calls_per_setup": (_KEM, "setup", "curve.exp_g", "calls", "count"),
    "curve.exp_gt.calls_per_op": (_KEM, "op", "curve.exp_gt", "calls", "count"),
    "curve.exp_gt.ms_per_call": (_KEM, "op", "curve.exp_gt", "mean", "ms"),
    "curve.mul_gt.calls_per_op": (_KEM, "op", "curve.mul_gt", "calls", "count"),
    "curve.mul_gt.us_per_call": (_KEM, "op", "curve.mul_gt", "mean", "us"),
    "curve.inverse_gt.calls_per_op": (_KEM, "op", "curve.inverse_gt", "calls", "count"),
    "curve.inverse_gt.us_per_call": (_KEM, "op", "curve.inverse_gt", "mean", "us"),
    "curve.mul_g.calls_per_op": (_KEM, "op", "curve.mul_g", "calls", "count"),
    "curve.mul_g.us_per_call": (_KEM, "op", "curve.mul_g", "mean", "us"),
    "curve.decode_g.calls_per_op": (_KEM, "op", "curve.decode_g", "calls", "count"),
    "curve.decode_g.ms_per_call": (_KEM, "op", "curve.decode_g", "mean", "ms"),
    "curve.make_group.ms": (_KEM, "setup", "curve.make_group", "mean", "ms"),
    "kem.setup.s": (_KEM, "setup", "kem.setup", "mean", "s"),
    "kem.encode_header.ms": (_KEM, "op", "kem.encode_header", "mean", "ms"),
    "kem.decode_header.self_ms": (_KEM, "op", "kem.decode_header", "self_mean", "ms"),
    "hybrid.seal_bytes.self_ms": (_SEAL, "op", "hybrid.seal_bytes", "self_mean", "ms"),
    "hybrid.open_bytes.self_ms": (_SEAL, "op", "hybrid.open_bytes", "self_mean", "ms"),
    "hybrid.dem_seal.MiBps": (_SEAL, "op", "hybrid.seal_bytes", "MiBps", "MiB/s"),
    "hybrid.dem_open.MiBps": (_SEAL, "op", "hybrid.open_bytes", "MiBps", "MiB/s"),
    "hybrid.to_bytes.ms": (_SEAL, "op", "hybrid.to_bytes", "mean", "ms"),
    "hybrid.from_bytes.self_ms": (_SEAL, "op", "hybrid.from_bytes", "self_mean", "ms"),
    "hybrid.derive_dem_key.us": (_SEAL, "op", "hybrid.derive_dem_key", "mean", "us"),
    "mock.mul_g.calls_per_op": (_CLI, "op", "mock.mul_g", "calls", "count"),
    "mock.mul_g.us_per_call": (_CLI, "op", "mock.mul_g", "mean", "us"),
    "mock.decode_g.calls_per_op": (_CLI, "op", "mock.decode_g", "calls", "count"),
    "mock.decode_g.calls_per_send": (_CLI, "send", "mock.decode_g", "calls", "count"),
    "mock.decode_g.calls_per_recv": (_CLI, "recv", "mock.decode_g", "calls", "count"),
    "mock.decode_g.us_per_call": (_CLI, "op", "mock.decode_g", "mean", "us"),
    "primes.is_prime.calls_per_op": (_CLI, "op", "primes.is_prime", "calls", "count"),
    "primes.is_prime.us_per_call": (_CLI, "op", "primes.is_prime", "mean", "us"),
    "kem.encaps.self_ms": (_CLI, "op", "kem.encaps", "self_mean", "ms"),
    "kem.decaps.self_ms": (_CLI, "op", "kem.decaps", "self_mean", "ms"),
    "fileformats.read_public_key.self_ms": (_CLI, "op", "fileformats.read_public_key", "self_mean", "ms"),
    "fileformats.read_share.self_ms": (_CLI, "op", "fileformats.read_share", "self_mean", "ms"),
    "fileformats.read_header_file.self_ms": (_CLI, "op", "fileformats.read_header_file", "self_mean", "ms"),
    "fileformats.write_header_file.ms": (_CLI, "op", "fileformats.write_header_file", "mean", "ms"),
    "fileformats.write_public_key.ms": (_CLI, "setup", "fileformats.write_public_key", "mean", "ms"),
    "fileformats.write_share.ms_total": (_CLI, "setup", "fileformats.write_share", "total", "ms"),
    "cli.encaps.self_ms": (_CLI, "send", "send", "self_mean", "ms"),
    "cli.decaps.self_ms": (_CLI, "recv", "recv", "self_mean", "ms"),
    "cli.setup.self_s": (_CLI, "setup", "setup", "self_mean", "s"),
    "fileformats.bytes_read_per_op": (_CLI, "op", None, "bytes_read", "B"),
}
_NS_PER_UNIT = {"ms": 1e6, "us": 1e3, "s": 1e9}
_SCOPE_ROOTS = {"op": ("send", "recv"), "send": ("send",), "recv": ("recv",),
                "setup": ("setup",)}


def layer_metrics(workload: str, tracer: Tracer, ops: int,
                  payload: int) -> dict[str, tuple[float, str]]:
    """The LAYER_METRICS of one workload from its traced slice of `ops` ops."""
    stats = tracer.aggregate()
    result = {}
    for name, (wl, scope, span, stat, unit) in LAYER_METRICS.items():
        if wl != workload:
            continue
        roots = _SCOPE_ROOTS[scope]
        calls, total, self_ns = (sum(stats.get((r, span), (0, 0, 0))[k] for r in roots)
                                 for k in range(3))
        if stat == "bytes_read":
            value = tracer.bytes_read / ops
        elif calls == 0:  # only when every op of the slice failed
            value = 0.0
        elif stat == "calls":
            value = calls / (1 if scope == "setup" else ops)
        elif stat == "share":
            value = self_ns / sum(stats[(r, r)][1] for r in roots)
        elif stat == "MiBps":
            value = payload * calls / (1 << 20) / (self_ns / 1e9)
        else:
            ns = {"mean": total / calls, "self_mean": self_ns / calls, "total": total}[stat]
            value = ns / _NS_PER_UNIT[unit]
        result[name] = (value, unit)
    return result
