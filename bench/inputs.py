"""Seeded inputs and job lists for the benchmark workloads.

Every generator takes the workload seed and is defined by structure alone:
the same seed gives byte-identical files.  The random structural family is
produced by the program's own ``gen`` command; the cascades and chains are
written here, independently of the library.  Inputs are generated before
any timing starts, so their cost stays outside every metric.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("structural-large", "numeric-rank", "validate-batch")

# Structural sizes and the random family's shape (nnz = 3n, m = 3).
STRUCTURAL_SIZES = (20000, 50000)
STRUCTURAL_K = 4
RANDOM_M = 3

# Numeric shapes: deep (cubic chain), wide (k=4 cascade), linear (k=2 chain).
# The cascade's layers fix its rank growth at 2, 4, 7, 12, 19, 24, so every
# seed runs five iterations whose blocks are s**3 wide for s = 2, 4, 7, 12, 19.
CUBIC_CHAIN_N = 18
LINEAR_CHAIN_N = 200
CASCADE_N = 24
CASCADE_M = 2
CASCADE_LAYERS = (2, 3, 5, 7, 5)

# validate runs: (n, k, m, trials).  Desk-size patterns, many per job.
VALIDATE_RUNS = ((5, 4, 2, 500), (8, 2, 2, 1500))


@dataclass
class Job:
    """One CLI invocation and what the checker needs to judge its output."""

    name: str
    argv: list[str]
    check: str
    params: dict = field(default_factory=dict)


@dataclass
class Pattern:
    """Sparsity pattern or realization as the benchmark writes it.

    ``tensor`` maps 1-based multi-indices (tail modes first, head last) to a
    coefficient, or to None for a pattern without values; ``control`` maps
    (row, column) pairs the same way.
    """

    k: int
    n: int
    m: int
    tensor: dict
    control: dict


def _coefficient(rng: np.random.Generator) -> float:
    sign = -1.0 if rng.integers(0, 2) == 0 else 1.0
    return float(sign * rng.uniform(0.5, 2.0))


def write_pattern(pattern: Pattern, path: str) -> None:
    """Write the system format; values are written only when present."""

    def fmt(idx, value):
        text = " ".join(str(i) for i in idx)
        return text if value is None else f"{text} {value!r}"

    lines = [f"tensor {pattern.k} {pattern.n}"]
    lines.extend(fmt(idx, v) for idx, v in sorted(pattern.tensor.items()))
    lines.append(f"matrix {pattern.n} {pattern.m}")
    lines.extend(fmt(idx, v) for idx, v in sorted(pattern.control.items()))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def cascade(n: int, k: int, m: int, extra: int, seed: int, valued: bool,
            layers: tuple[int, ...] | None = None) -> Pattern:
    """Controllable cascade: input j feeds vertex j for j <= m, and every
    later vertex gets its own tail multiset drawn from earlier vertices.

    The distinct tails give each vertex an edge of its own (a perfect
    matching), and each tail is accessible once its earlier vertices are,
    so every vertex fires.  ``extra`` further entries only add edges or
    head vertices, which keeps both properties.  Needs k >= 4 so that
    fresh tails are plentiful.

    Without ``layers`` a vertex draws its tail from all vertices before it.
    With ``layers`` (sizes after the m input-fed vertices) a vertex of layer
    t draws one tail vertex from layer t-1 and the rest from layers before
    t, and extra entries follow the same rule.  Vertex depth then equals its
    layer, so for generic coefficients the reduction reaches rank
    m + layers[0] + ... + layers[t-1] after t iterations whatever the seed.
    """
    rng = np.random.default_rng([seed, n, k, m])
    starts = [1, m + 1]
    for size in layers or ():
        starts.append(starts[-1] + size)
    if layers is not None and starts[-1] != n + 1:
        raise ValueError(f"layers {layers} do not cover vertices {m + 1}..{n}")

    def draw_tail(i: int) -> tuple[int, ...]:
        if layers is None:
            return tuple(sorted(int(v) for v in rng.integers(1, i, size=k - 1)))
        t = max(j for j, start in enumerate(starts) if start <= i)
        first = int(rng.integers(starts[t - 1], starts[t]))
        rest = [int(v) for v in rng.integers(1, starts[t], size=k - 2)]
        return tuple(sorted([first] + rest))

    tensor: dict = {}
    tails: set = set()
    for i in range(m + 1, n + 1):
        for _ in range(1000):
            tail = draw_tail(i)
            if tail not in tails:
                break
        else:
            raise ValueError(f"no fresh tail left for vertex {i}")
        tails.add(tail)
        tensor[tail + (i,)] = None
    target = len(tensor) + extra
    while len(tensor) < target:
        if layers is None:
            idx = tuple(int(v) for v in rng.integers(1, n + 1, size=k))
        else:
            head = int(rng.integers(m + 1, n + 1))
            idx = draw_tail(head) + (head,)
        tensor.setdefault(idx, None)
    control = {(j, j): None for j in range(1, m + 1)}
    if valued:
        tensor = {idx: _coefficient(rng) for idx in sorted(tensor)}
        control = {idx: _coefficient(rng) for idx in sorted(control)}
    return Pattern(k, n, m, tensor, control)


def chain(n: int, k: int, seed: int) -> Pattern:
    """``x_{i+1}' = +-x_i^(k-1)`` driven at vertex 1, signs drawn from the seed.

    Magnitudes stay 1 as in the chain's definition, so the Krylov columns of
    the k=2 chain are exactly the unit vectors and ``kalman_rank`` stays a
    usable reference at n=200 (random magnitudes make its columns shrink
    geometrically below any rank cutoff).
    """
    rng = np.random.default_rng([seed, n, k])
    signs = rng.choice([-1.0, 1.0], size=n)
    tensor = {(i,) * (k - 1) + (i + 1,): float(signs[i]) for i in range(1, n)}
    return Pattern(k, n, 1, tensor, {(1, 1): float(signs[0])})


def _gen_random(cli: list[str], env: dict, n: int, seed: int, path: str) -> None:
    argv = cli + ["gen", "--n", str(n), "--k", str(STRUCTURAL_K), "--m", str(RANDOM_M),
                  "--seed", str(seed), "--tensor-nnz", str(3 * n)]
    with open(path, "wb") as out:
        subprocess.run(argv, stdout=out, env=env, check=True, timeout=120)


def build_jobs(workload: str, seed: int, workdir: str, cli: list[str], env: dict) -> list[Job]:
    """Write the workload's inputs under ``workdir`` and return its job list."""
    jobs: list[Job] = []
    if workload == "structural-large":
        for n in STRUCTURAL_SIZES:
            path = os.path.join(workdir, f"random-{n}.txt")
            _gen_random(cli, env, n, seed, path)
            jobs.append(Job(f"random-{n}", ["analyze", path, "--json"], "analyze", {"path": path}))
            path = os.path.join(workdir, f"cascade-{n}.txt")
            write_pattern(cascade(n, STRUCTURAL_K, RANDOM_M, 2 * n, seed, valued=False), path)
            jobs.append(Job(f"cascade-{n}", ["analyze", path, "--json"], "analyze",
                            {"path": path, "controllable": True}))
    elif workload == "numeric-rank":
        shapes = (
            ("cubic-chain", chain(CUBIC_CHAIN_N, 4, seed)),
            ("cascade", cascade(CASCADE_N, 4, CASCADE_M, CASCADE_N, seed, valued=True,
                                layers=CASCADE_LAYERS)),
            ("linear-chain", chain(LINEAR_CHAIN_N, 2, seed)),
        )
        for name, pattern in shapes:
            path = os.path.join(workdir, f"{name}-{pattern.n}.txt")
            write_pattern(pattern, path)
            jobs.append(Job(f"{name}-{pattern.n}", ["rank", path, "--json"], "rank",
                            {"path": path, "n": pattern.n, "kalman": pattern.k == 2}))
    elif workload == "validate-batch":
        for n, k, m, trials in VALIDATE_RUNS:
            argv = ["validate", "--json", "--trials", str(trials), "--n", str(n),
                    "--k", str(k), "--m", str(m), "--seed", str(seed)]
            jobs.append(Job(f"validate-n{n}-k{k}", argv, "validate",
                            {"trials": trials, "n": n, "k": k, "m": m, "seed": seed}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs

