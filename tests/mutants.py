"""Mutation checks: every mutant below must make one of its tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant replaces one snippet of a source file, which must occur there
exactly once. For each mutant the script copies src/, tests/ and
pyproject.toml to a fresh temporary directory, applies the mutant, and
runs the mutant's tests there with pytest -x. The copy is needed because
pyproject.toml puts src/ on pytest's path, so pytest in the checkout would
import the unmutated code. The unmutated copy runs all listed tests first
and must pass. A mutant is killed when pytest reports a failing test (exit
status 1) and survives when its tests pass. The script lists every
survivor and exits 1 if there is one or if any run could not be judged.

pytest does not collect this file: its name does not start with test_.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CURVE = "src/bgwkem/groups/curve.py"
DIFF = "tests/test_curve_differential.py"
GENERATORS = f"{DIFF}::test_generators_unchanged"
PAIR = f"{DIFF}::test_pair_matches_oracle"
WHOLE_CURVE = f"{DIFF}::test_scalar_multiplication_exhaustive_on_whole_curve"
ENCODING = "tests/test_curve_group.py::test_encoding_fixed_width_and_canonical"
SUBGROUP_SWEEP = f"{DIFF}::test_subgroup_check_is_the_p_multiple_test_on_every_small_curve"
TABLE = (
    f"{DIFF}::test_generator_table_exhaustive_on_a_four_row_table",
    f"{DIFF}::test_generator_table_matches_double_and_add_at_edge_scalars",
)

MUTANTS = [
    # the generator search, the one-point normalisation, the public-key
    # role order and the bounded multiplicative order
    Mutant("generator search without the residue test", CURVE,
           "            if y * y % q != rhs:\n                continue\n", "",
           (GENERATORS,)),
    Mutant("generator search with half the cofactor", CURVE,
           "h = self._cofactor\n        for x", "h = self._cofactor // 2\n        for x",
           (GENERATORS,)),
    Mutant("_pt_mul returns its Jacobian X and Y unnormalised", CURVE,
           "yp)\n        return self._to_affine_all([(X, Y, Z)])[0]",
           "yp)\n        return self._to_affine_all([(X, Y, 1)])[0]",
           (WHOLE_CURVE,)),
    Mutant("_sum normalises by Z^2 in place of Z", CURVE,
           "*P)\n        return self._to_affine_all([(X, Y, Z)])[0]",
           "*P)\n        return self._to_affine_all([(X, Y, Z * Z % self.q)])[0]",
           (f"{DIFF}::test_mul_and_inverse_exhaustive_on_g",)),
    Mutant("public key writer swaps the g and v roles", "src/bgwkem/fileformats.py",
           'elements = {"g": pk.g, "v": pk.v, **pk.powers}',
           'elements = {"g": pk.v, "v": pk.g, **pk.powers}',
           ("tests/test_fileformats.py::test_public_key_round_trip",)),
    Mutant("multiplicative_order flips the a^F rule", "src/bgwkem/primes.py",
           "if pow(a, order, p) != 1:", "if pow(a, order, p) == 1:",
           ("tests/test_primes.py::test_multiplicative_order_past_the_trial_division_bound",
            "tests/test_analyzer.py::test_embedding_degree_is_bounded_for_large_p")),
    # the mixed addition's special cases and the inverses
    Mutant("mixed addition: R = P gives infinity", CURVE,
           "return *self._jac_double(X, Y, Z)[:3], 0", "return 1, 1, 0, 0",
           (WHOLE_CURVE,)),
    Mutant("mixed addition: R = -P gives the doubling", CURVE,
           "return 1, 1, 0, r", "return *self._jac_double(X, Y, Z)[:3], r",
           (WHOLE_CURVE,)),
    Mutant("mixed addition: R = -P gives R unchanged", CURVE,
           "return 1, 1, 0, r", "return X, Y, Z, r",
           (WHOLE_CURVE,)),
    Mutant("normalisation maps Z = 0 to a point", CURVE,
           "            if Z:\n                zinv", "            if True:\n                zinv",
           (WHOLE_CURVE,)),
    Mutant("GT inverse without the conjugate", CURVE,
           "return GTElement(self, self._f2conj(a.value))", "return GTElement(self, a.value)",
           (f"{DIFF}::test_gt_inverse_is_oracle_inverse_on_all_of_mu_p",)),
    # g's radix-16 table
    Mutant("table digit index - 1", CURVE,
           "row[(k >> _RADIX_BITS * j) % _RADIX]",
           "row[(k >> _RADIX_BITS * j) % _RADIX - 1]", TABLE),
    Mutant("table digit index + 1", CURVE,
           "row[(k >> _RADIX_BITS * j) % _RADIX]",
           "row[((k >> _RADIX_BITS * j) + 1) % _RADIX]", TABLE),
    Mutant("table row index + 1", CURVE,
           "row[(k >> _RADIX_BITS * j) % _RADIX]",
           "row[(k >> _RADIX_BITS * (j + 1)) % _RADIX]", TABLE),
    Mutant("table rows sliced one entry late", CURVE,
           "points[j * width:(j + 1) * width]",
           "points[j * width + 1:(j + 1) * width + 1]", TABLE),
    Mutant("odd table entry added to the wrong entry", CURVE,
           "self._jac_add_affine(*row[d - 1], xb, yb)",
           "self._jac_add_affine(*row[d - 2], xb, yb)", TABLE),
    Mutant("table one row too short", CURVE,
           "rows = -(-self.order.bit_length() // _RADIX_BITS)",
           "rows = -(-self.order.bit_length() // _RADIX_BITS) - 1", TABLE),
    Mutant("batch inversion peels the wrong prefix", CURVE,
           "zinv = inverse * prefixes[i] % q", "zinv = inverse * prefixes[i - 1] % q",
           TABLE),
    # decode_g's checks: on the curve, then the 2-descent and the odd part
    Mutant("decode_g without the on-curve check", CURVE,
           "if not self._on_curve(x, y):", "if False:",
           ("tests/test_curve_group.py::test_decode_rejects_off_curve_point",)),
    Mutant("descent takes the sign for which u^2 - 4 is a non-square", CURVE,
           "if jacobi(u * u - 4, q) != 1:", "if jacobi(u * u - 4, q) == 1:",
           (SUBGROUP_SWEEP,)),
    Mutant("descent drops one level", CURVE,
           "for _ in range(a - 1):", "for _ in range(a - 2):",
           (SUBGROUP_SWEEP,)),
    # u - 2 in place of u + 2 is no mutant: (u + 2)(u - 2) = u^2 - 4 is a
    # square, so both have one Jacobi symbol
    Mutant("descent tests u in place of u + 2 at each level", CURVE,
           "if jacobi(u + 2, q) != 1:", "if jacobi(u, q) != 1:",
           (SUBGROUP_SWEEP,)),
    Mutant("subgroup check skips the odd part of the cofactor", CURVE,
           "return h >> a == 1 or self._pt_mul(self.order << a, (x, y)) is None",
           "return True",
           (SUBGROUP_SWEEP,)),
    # GT and the pairing
    Mutant("GT squaring as 2a^2 + 1", CURVE,
           "a, b = (2 * a * a - 1) % q, 2 * a * b % q",
           "a, b = (2 * a * a + 1) % q, 2 * a * b % q",
           (f"{DIFF}::test_gt_exp_matches_oracle_on_all_of_mu_p",)),
    Mutant("decode_gt without the norm check", CURVE,
           "if (a * a + b * b) % self.q != 1 or self._f2pow(",
           "if self._f2pow(",
           (f"{DIFF}::test_decode_gt_accepts_exactly_mu_p",)),
    Mutant("decode_gt with the norm check alone", CURVE,
           "!= 1 or self._f2pow((a, b), self.order) != (1, 0):", "!= 1:",
           (f"{DIFF}::test_decode_gt_rejects_norm_one_values_outside_mu_p",)),
    Mutant("Miller loop stops at the first chord, not at R = -P", CURVE,
           "                if Z == 0:\n                    # R = -P",
           "                if Z != 0:\n                    # R = -P",
           (PAIR,)),
    Mutant("final power from f/conj(f) in place of conj(f)/f", CURVE,
           "-2 * a * b * ninv % q)", "2 * a * b * ninv % q)",
           (PAIR,)),
    # the values each backend's constructor sets and BilinearGroup serves
    Mutant("curve G size off by one", CURVE,
           "self.g_encoded_size = 1 + 2 * self._qwidth",
           "self.g_encoded_size = 2 + 2 * self._qwidth",
           (ENCODING,)),
    Mutant("curve GT size given a tag byte", CURVE,
           "self.gt_encoded_size = 2 * self._qwidth",
           "self.gt_encoded_size = 1 + 2 * self._qwidth",
           (ENCODING,)),
    Mutant("mock G identity 1", "src/bgwkem/groups/mock.py",
           "self._identity_g = self._identity_gt = 0",
           "self._identity_g, self._identity_gt = 1, 0",
           ("tests/test_mock_group.py::test_generator_and_identities",)),
    Mutant("curve GT identity (0, 1)", CURVE,
           "self._identity_gt = (1, 0)", "self._identity_gt = (0, 1)",
           ("tests/test_curve_group.py::test_pairing_non_degenerate",)),
    Mutant("exp reads g's table for every G base", CURVE,
           "if x.value == self._g:", "if True:",
           (f"{DIFF}::test_exp_matches_oracle",)),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def _pytest(tree: Path, tests) -> int:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    run = subprocess.run(command, cwd=tree, env=_env(tree),
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if run.returncode not in (0, 1):
        print(run.stdout[-2000:])
    return run.returncode


def _check_snippets() -> bool:
    ok = True
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.snippet)
        if count != 1:
            print(f"snippet of {m.name!r} occurs {count} times in {m.file}")
            ok = False
    return ok


def main() -> int:
    if not _check_snippets():
        return 1
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bgwkem-mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy_tree(baseline)
        where = subprocess.run(
            [sys.executable, "-c", "import bgwkem; print(bgwkem.__file__)"],
            cwd=baseline, env=_env(baseline), stdout=subprocess.PIPE, text=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(baseline):
            print(f"the copy imports bgwkem from {where}, not from the copy")
            return 1
        all_tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(baseline, all_tests) != 0:
            print("the unmutated copy fails its tests")
            return 1
        shutil.rmtree(baseline)
        survivors, unjudged = [], []
        for i, m in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            _copy_tree(tree)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.snippet, m.replacement))
            status = _pytest(tree, m.tests)
            shutil.rmtree(tree)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
            print(f"{verdict:>14}  {m.name}")
            if status == 0:
                survivors.append(m.name)
            elif status != 1:
                unjudged.append(m.name)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived, {len(unjudged)} unjudged, "
          f"{time.perf_counter() - started:.0f} s")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors or unjudged else 0


if __name__ == "__main__":
    sys.exit(main())
