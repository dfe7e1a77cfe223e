"""The benchmark's workloads: the CLI calls of one round and the gate on them.

A round is one fresh interpreter that runs a workload's command list
through ``ufabound.cli.main``.  The gate checks every command's exit status
and output against exact expected values; a round that fails the gate
gives no timing sample.  Each workload has a full size, which the timed
runs use, and a tiny smoke size for the benchmark's own test.

The full sizes are n = 3: at n = 4 one pipeline or ``verify`` round takes
60-70 s on a 2-core box, more than one whole benchmark run may last.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

# closed-form ordered-prefix-table counts: the rank every matrix must reach
COUNT = {2: 7, 3: 115}
# columns of K: the number of suffix tables
SUFFIX_TABLES = {2: 9, 3: 217}
VERIFY_CHECKS = 11
SCHMIDT_STATES = 3
SCHMIDT_ALPHABET = 2
# a run's schmidt instances are seeded from seed * SEED_STRIDE upwards, so
# runs with different seeds share no instance
SEED_STRIDE = 1_000_000


def _primes_below(limit: int, count: int) -> list[int]:
    """The ``count`` largest primes below ``limit``, by trial division."""
    out = []
    candidate = limit - 1
    while len(out) < count:
        if candidate % 2 and all(candidate % d for d in range(3, int(candidate ** 0.5) + 1, 2)):
            out.append(candidate)
        candidate -= 1
    return out


@dataclass
class Gate:
    """Outcome of one round's correctness gate."""

    attempted: int
    failed: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.failed and not self.problems


def normalized_stdout(outputs: list[dict], tmp: str) -> str:
    """All commands' stdout, with the round's temp directory masked."""
    return "".join(o["stdout"] for o in outputs).replace(tmp, "<tmp>")


@dataclass(frozen=True)
class Pipeline:
    """``build-matrix --kind K`` to a file, then ``rank --mod p`` and
    ``rank --mod 2`` on it: the reproduction of the headline rank through
    files, covering the matrix text format and two rank engines."""

    n: int
    file_digests: dict | None = None
    ops = 3

    def commands(self, seed: int, index: int, tmp: str) -> list[list[str]]:
        path = os.path.join(tmp, f"K{self.n}.mat")
        prime = PIPELINE_PRIMES[seed % len(PIPELINE_PRIMES)]
        return [["build-matrix", "--n", str(self.n), "--kind", "K", "--out", path],
                ["rank", "--in", path, "--mod", str(prime)],
                ["rank", "--in", path, "--mod", "2"]]

    def check(self, outputs: list[dict], tmp: str, library_count: int,
              seed: int, index: int) -> Gate:
        path = os.path.join(tmp, f"K{self.n}.mat")
        count = COUNT[self.n]
        expected = [f"{count}x{SUFFIX_TABLES[self.n]} matrix written to {path}\n",
                    f"{count}\n", f"{count}\n"]
        problems = []
        if library_count != count:
            problems.append(f"count_ordered_prefix_tables({self.n}) = {library_count}")
        failed = 0
        for argv, out, want in zip(self.commands(seed, index, tmp), outputs, expected):
            if out["rc"] != 0 or out["stdout"] != want:
                failed += 1
                problems.append(f"{argv[0]}: exit {out['rc']}, stdout {out['stdout']!r}")
        if self.file_digests and not failed:
            for suffix, want in self.file_digests.items():
                got = _sha256_file(path + suffix)
                if got != want:
                    problems.append(f"K{self.n}.mat{suffix} sha256 {got}")
        return Gate(len(expected), failed, problems)


@dataclass(frozen=True)
class Verify:
    """``verify --n N --level L``: the named self-check suite."""

    n: int
    level: str
    ops = VERIFY_CHECKS

    def commands(self, seed: int, index: int, tmp: str) -> list[list[str]]:
        return [["verify", "--n", str(self.n), "--level", self.level,
                 "--seed", str(seed)]]

    def check(self, outputs: list[dict], tmp: str, library_count: int,
              seed: int, index: int) -> Gate:
        out = outputs[0]
        lines = out["stdout"].splitlines()
        passed = sum(ln.startswith("PASS  ") for ln in lines[:-1])
        problems = [ln for ln in lines[:-1] if not ln.startswith("PASS  ")]
        summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
        if out["rc"] != 0 or len(lines) != VERIFY_CHECKS + 1 or lines[-1] != summary:
            problems.append(f"exit {out['rc']}, last line {lines[-1:]!r}")
        return Gate(VERIFY_CHECKS, VERIFY_CHECKS - passed, problems)


@dataclass(frozen=True)
class Schmidt:
    """``schmidt --random N --states 3 --alphabet 2``: the optimality
    experiment over seeded random two-way automata."""

    instances: int
    n = SCHMIDT_STATES

    @property
    def ops(self) -> int:
        return self.instances

    def base_seed(self, seed: int, index: int) -> int:
        return seed * SEED_STRIDE + index * self.instances

    def commands(self, seed: int, index: int, tmp: str) -> list[list[str]]:
        return [["schmidt", "--random", str(self.instances),
                 "--states", str(SCHMIDT_STATES), "--alphabet", str(SCHMIDT_ALPHABET),
                 "--seed", str(self.base_seed(seed, index))]]

    def check(self, outputs: list[dict], tmp: str, library_count: int,
              seed: int, index: int) -> Gate:
        base = self.base_seed(seed, index)
        out = outputs[0]
        lines = out["stdout"].splitlines()
        bound = COUNT[SCHMIDT_STATES]
        problems = []
        ok = 0
        for i, ln in enumerate(lines[:-1]):
            try:
                rec = json.loads(ln)
            except json.JSONDecodeError:
                problems.append(f"not JSON: {ln!r}")
                continue
            if (rec.get("ok") is True and rec.get("bound") == bound
                    and rec.get("n") == SCHMIDT_STATES and rec.get("seed") == base + i
                    and 0 <= rec.get("rank", -1) <= bound):
                ok += 1
            else:
                problems.append(f"instance {i}: {ln}")
        summary = f"bound {bound} holds on {self.instances} random instances"
        if (out["rc"] != 0 or len(lines) != self.instances + 1
                or lines[-1:] != [summary]):
            problems.append(f"exit {out['rc']}, last line {lines[-1:]!r}")
        return Gate(self.instances, self.instances - ok, problems)


def _sha256_file(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


PIPELINE_PRIMES = _primes_below(2**31, 16)  # 2**31 - 1 first


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: object
    smoke: object
    # sha256 of the normalized stdout of round 0 at seed 0, full size
    stdout_digest: str


WORKLOADS = {w.name: w for w in [
    Workload(
        "pipeline-n3",
        "How a user reproduces the headline rank through files; the only "
        "workload that runs the matrix text format and the GF(p) and GF(2) "
        "rank engines from the CLI.",
        Pipeline(3, {
            "": "d9fb977ace9ba3c68f09759bae635edfc83f96fb1533412abd9e30e7fd978502",
            ".rows": "3a0b0f5749c20049aa9b481d0c2b20b9f6c346de4db3bb8ea36b25e43f4b0bcf",
            ".cols": "175895d01e39a275336d6da1658107f6a4d4fa463714c1cc08847c65f5fe2d43"}),
        Pipeline(2),
        "bd6d78a4038172c97367bf26b808db9d1c301f891096bda8c53e88a4005fde7c"),
    Workload(
        "verify-full-n3",
        "The only workload where single-entry decisions and the layer "
        "predicates (m_entry, haspath, build_g_I, break_set) do most of the "
        "work; it also runs every named verify check.",
        Verify(3, "full"), Verify(2, "full"),
        "ec154bd1aa05273d5f5e6f87321d565a45a5b36e3d94cd6c8cf9757dd4494032"),
    Workload(
        "schmidt-n3",
        "The optimality experiment; the only workload heavy in two-way "
        "simulation of arbitrary automata, crossing profiles and many small "
        "exact-rank calls.",
        Schmidt(300), Schmidt(3),
        "26e1c3848570f395902b356248d59d4d1bca8afe4b2b9d36ad29513efeebe723"),
]}
