"""Output checker, independent of the route under test.

It rereads each input file with its own reader and judges the CLI's JSON
report against certificates it can verify directly: a matching against the
hyperedge heads, a dilation witness against Hall's condition, the
inaccessible set against a naive firing closure, ranks against the known
structure of the generated systems (and, for the linear chain, against
``polyctrl.oracle.kalman_rank``).  Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np


def read_system(path: str):
    """Return (k, n, m, tensor entries, control entries) of a system file.

    Entries are (index tuple, value or None); the benchmark's own files are
    well formed, so this reader does no validation beyond its own needs.
    """
    with open(path, encoding="ascii") as handle:
        lines = [line.split() for line in handle if line.strip() and not line.startswith("#")]
    k, n = int(lines[0][1]), int(lines[0][2])
    split = next(i for i, tokens in enumerate(lines) if tokens[0] == "matrix")
    m = int(lines[split][2])

    def entry(tokens, width):
        idx = tuple(int(t) for t in tokens[:width])
        return idx, float(tokens[width]) if len(tokens) > width else None

    tensor = [entry(tokens, k) for tokens in lines[1:split]]
    control = [entry(tokens, 2) for tokens in lines[split + 1:]]
    return k, n, m, tensor, control


def hyperedges(n: int, tensor, control) -> list[tuple[tuple[int, ...], set[int]]]:
    """Edges in the report's index order: control columns first, then tensor
    tails as sorted multisets, each group in ascending order."""
    by_column: dict[int, set[int]] = {}
    for (i, j), _ in control:
        by_column.setdefault(j, set()).add(i)
    by_tail: dict[tuple[int, ...], set[int]] = {}
    for idx, _ in tensor:
        by_tail.setdefault(tuple(sorted(idx[:-1])), set()).add(idx[-1])
    edges = [((n + j,), heads) for j, heads in sorted(by_column.items())]
    edges.extend(sorted(by_tail.items()))
    return edges


def firing_closure(n: int, m: int, tensor, control) -> set[int]:
    """Accessible state vertices by sweeping every entry until nothing changes.

    An entry fires when all its tail vertices are accessible; its head then
    becomes accessible.  Inputs are accessible from the start.
    """
    accessible = np.zeros(n + m + 1, dtype=bool)
    accessible[n + 1:] = True
    for (i, _), _ in control:
        accessible[i] = True
    if tensor:
        index = np.array([idx for idx, _ in tensor], dtype=np.int64)
        tails, heads = index[:, :-1], index[:, -1]
        while True:
            before = int(accessible.sum())
            accessible[heads[accessible[tails].all(axis=1)]] = True
            if int(accessible.sum()) == before:
                break
    return {v for v in range(1, n + 1) if accessible[v]}


def check_analyze(report: dict, path: str, controllable: bool | None = None) -> list[str]:
    k, n, m, tensor, control = read_system(path)
    problems = []
    section = report.get("input", {})
    expected = {"k": k, "n": n, "m": m, "tensor_nnz": len(tensor), "control_nnz": len(control)}
    for key, value in expected.items():
        if section.get(key) != value:
            problems.append(f"input.{key} is {section.get(key)!r}, expected {value}")
    s = report["structural"]
    edges = hyperedges(n, tensor, control)

    matching = s["matching"]
    edge_ids = [e for e, _ in matching]
    vertices = [v for _, v in matching]
    if len(set(edge_ids)) != len(edge_ids) or len(set(vertices)) != len(vertices):
        problems.append("matching reuses an edge or a vertex")
    for e, v in matching:
        if not (0 <= e < len(edges) and 1 <= v <= n and v in edges[e][1]):
            problems.append(f"matching pair ({e}, {v}): vertex not in that edge's head")
            break

    witness = s["dilation_witness"]
    if s["dilated"] != (witness is not None):
        problems.append("dilated flag disagrees with the witness")
    if witness is None:
        if len(matching) != n:
            problems.append(f"no dilation reported but the matching covers {len(matching)} of {n}")
    else:
        members = set(witness)
        covering = sum(1 for _, heads in edges if heads & members)
        if not members or not members <= set(range(1, n + 1)) or covering >= len(members):
            problems.append(f"witness of {len(members)} vertices has {covering} covering edges")

    inaccessible = set(range(1, n + 1)) - firing_closure(n, m, tensor, control)
    if set(s["inaccessible"]) != inaccessible:
        problems.append(f"inaccessible set has {len(s['inaccessible'])} vertices, "
                        f"firing closure leaves {len(inaccessible)}")
    if s["controllable"] != (witness is None and not s["inaccessible"]):
        problems.append("controllable flag disagrees with dilation and accessibility")
    if controllable is not None and s["controllable"] != controllable:
        problems.append(f"controllable is {s['controllable']}, expected {controllable}")
    return problems


def check_rank(report: dict, path: str, n: int, kalman: bool) -> list[str]:
    """Generated numeric systems are controllable: the rank must equal n."""
    problems = []
    if report["n"] != n or report["rank"] != n or report["strongly_controllable"] is not True:
        problems.append(f"rank {report['rank']} of n={report['n']}, expected full rank {n}")
    if not 1 <= report["iterations"] <= n:
        problems.append(f"iterations {report['iterations']} outside [1, {n}]")
    if kalman:
        from polyctrl.oracle import kalman_rank

        k, dim, m, tensor, control = read_system(path)
        a = np.zeros((dim, dim))
        for (tail, head), value in tensor:
            a[head - 1, tail - 1] = value
        b = np.zeros((dim, m))
        for (i, j), value in control:
            b[i - 1, j - 1] = value
        reference = kalman_rank(a, b)
        if reference != report["rank"]:
            problems.append(f"rank {report['rank']} but kalman_rank gives {reference}")
    return problems


def check_validate(report: dict, trials: int, n: int, k: int, m: int, seed: int) -> list[str]:
    """The validate report must agree with itself and with its arguments."""
    problems = []
    for key, value in {"trials": trials, "n": n, "k": k, "m": m, "seed": seed}.items():
        if report[key] != value:
            problems.append(f"{key} is {report[key]!r}, expected {value}")
    detail = report["detail"]
    if len(detail) != trials or [d["index"] for d in detail] != list(range(trials)):
        problems.append(f"detail lists {len(detail)} trials, expected {trials}")
    if report["agreements"] + len(report["disagreements"]) != trials:
        problems.append("agreements plus disagreements differ from trials")
    for d in detail:
        ranks = d["ranks"]
        if any(not 0 <= r <= d["n"] for r in ranks) or d["n"] != n:
            problems.append(f"trial {d['index']}: rank outside [0, n]")
        agree = any(r == n for r in ranks) if d["controllable"] else all(r < n for r in ranks)
        if d["agree"] != agree:
            problems.append(f"trial {d['index']}: agree flag does not match its ranks")
    if report["disagreements"] != [d["index"] for d in detail if not d["agree"]]:
        problems.append("disagreement list does not match the trial details")
    if report["all_agree"] != (not report["disagreements"]):
        problems.append("all_agree does not match the disagreement list")
    return problems


def check(job, report: dict) -> list[str]:
    """Dispatch on the job's check kind; a malformed report is a problem too."""
    try:
        if job.check == "analyze":
            return check_analyze(report, **job.params)
        if job.check == "rank":
            return check_rank(report, **job.params)
        if job.check == "validate":
            return check_validate(report, **job.params)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    return [f"unknown check {job.check!r}"]
