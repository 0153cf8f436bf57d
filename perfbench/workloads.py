"""Seeded request generators for the knotfog benchmark.

Every CLI request is built here as a small tuple tree, rendered to the
canonical text `knotlang.render` prints (flags in full, fixed spacing),
and paired with the answer the oracle expects.  The expected answers are
closed forms and a hand-written per-leaf table; nothing here imports
knotfog.

A round holds one request per stratum: ten strata in order of cost,
where the 4th to 7th have one cost and the 8th to 10th another.  Whole
passes over a round give every request the same number of samples P, so
the nearest-rank median (rank 5P of 10P) falls among the 4P samples of
the first plateau and the 90th percentile (rank 9P) among the 3P of the
second, for every seed and every P: the seed moves the inputs inside
each stratum, not which stratum a percentile reports, and one slow
sample cannot move it.

Tree nodes: ("trefoil",), ("fig8",), ("kfam", n), ("wh0", child, clasp),
("ksat", j, l, m, n), ("atom", name, genus, torus, cable, slice) and
("sum", terms), an n-ary left-associated connected sum.
"""

from __future__ import annotations

import dataclasses
import random

# Linux refuses a single exec argument of 32 pages (131072 bytes, NUL
# included) with E2BIG; every expression is passed as one argument.
MAX_ARG_BYTES = 131071

TRI = ("yes", "no", "unknown")


@dataclasses.dataclass(frozen=True)
class Expect:
    """What an independent oracle knows about one answer.

    ``alex`` is "one" (exactly 1), "unknown", or a tuple of (x, value)
    pairs the canonical polynomial must take.  With ``exact_g1`` the g1
    interval is exactly [``g1_lo_min``, ``g1_hi``]; otherwise its lower
    bound is at least ``g1_lo_min`` and its upper bound is ``g1_hi``.
    """

    genus: tuple[int, int | None]
    alex: object
    g1_lo_min: int
    g1_hi: int | None
    exact_g1: bool
    warnings: int


@dataclasses.dataclass(frozen=True)
class Request:
    text: str
    json: bool
    expect: Expect
    nodes: int
    distinct: int
    depth: int


# -- trees ------------------------------------------------------------------


def text(node) -> str:
    kind = node[0]
    if kind in ("trefoil", "fig8", "unknot"):
        return kind
    if kind == "kfam":
        return f"kfam({node[1]})"
    if kind == "wh0":
        return f"wh0({text(node[1])}, clasp={node[2]})"
    if kind == "ksat":
        return f"ksat({text(node[1])}, {text(node[2])}, {node[3]}, {node[4]})"
    if kind == "atom":
        _, name, genus, torus, cable, slice_ = node
        return f"atom({name}, genus={genus}, torus={torus}, cable={cable}, slice={slice_})"
    if kind == "sum":
        return " # ".join(text(t) for t in node[1])
    raise ValueError(f"unknown node {node!r}")


def _children(node) -> tuple:
    if node[0] == "wh0":
        return (node[1],)
    if node[0] == "ksat":
        return (node[1], node[2])
    return ()


def shape(node) -> tuple[int, int, int]:
    """(nodes, distinct subtrees, depth) of the binary tree knotfog parses.

    An n-ary sum of L terms parses to L-1 left-nested Sum nodes, all
    distinct because every prefix has a different size.  Shared tuples
    (the doubling trees) are walked once.
    """
    memo: dict[int, tuple[int, int]] = {}
    seen: set[str] = set()

    def walk(n) -> tuple[int, int]:
        key = id(n)
        if key not in memo:
            sizes = [walk(c) for c in _children(n)]
            seen.add(text(n))
            memo[key] = (1 + sum(s for s, _ in sizes), 1 + max((d for _, d in sizes), default=0))
        return memo[key]

    if node[0] != "sum":
        nodes, depth = walk(node)
        return nodes, len(seen), depth
    terms = node[1]
    sizes = [walk(t) for t in terms]
    count = len(terms)
    depth = max((count - max(i, 1) + d for i, (_, d) in enumerate(sizes)), default=0)
    return sum(s for s, _ in sizes) + count - 1, len(seen) + count - 1, depth


def check_arg_size(expr: str) -> str:
    if len(expr.encode()) > MAX_ARG_BYTES:
        raise ValueError(f"expression of {len(expr.encode())} bytes exceeds the "
                         f"{MAX_ARG_BYTES}-byte exec argument limit")
    return expr


def _request(node, as_json: bool, expect: Expect) -> Request:
    nodes, distinct, depth = shape(node)
    return Request(check_arg_size(text(node)), as_json, expect, nodes, distinct, depth)


def _json_flags(rng: random.Random, count: int) -> list[bool]:
    chosen = set(rng.sample(range(count), count // 2))
    return [i in chosen for i in range(count)]


# -- pretzel-power -------------------------------------------------------------

# n in [lo, lo + 8): the strata straddle the power-of-two cliffs of
# square-and-multiply at 64, 128 and 256, and a width of 8 varies only
# the low bits, which are multiplied in while the product is still small.
# Both plateaus lie past 256 and cost under a second, so a run repeats
# each request many times; past 512 one request costs seconds.
PRETZEL_STRATA = (48, 96, 144, 264, 264, 264, 264, 424, 424, 424)
PRETZEL_WIDTH = 8


def kfam_expect(n: int) -> Expect:
    # Delta_n = (2t^2 - 5t + 2)^n = ((2t - 1)(t - 2))^n: 5^n at t = 3, 9^n at t = -1.
    return Expect((n, n), ((3, 5 ** n), (-1, 9 ** n)), 2 * n, None, False, 0)


def pretzel_round(rng: random.Random) -> list[Request]:
    flags = _json_flags(rng, len(PRETZEL_STRATA))
    out = []
    for lo, as_json in zip(PRETZEL_STRATA, flags):
        n = rng.randrange(lo, lo + PRETZEL_WIDTH)
        out.append(_request(("kfam", n), as_json, kfam_expect(n)))
    return out


# -- sum-chain -------------------------------------------------------------------

# (length, whether atoms may appear).  Atoms make the product of
# Alexander polynomials unknown, which skips the Laurent products, so
# they are fixed per stratum: the percentile strata always hold them.
# The cost is quadratic in length; the longest stratum stays near half a
# second per request so that a run repeats every request many times.
CHAIN_STRATA = ((60, False), (90, True), (120, False), (180, True), (180, True),
                (180, True), (180, True), (320, True), (320, True), (320, True))
CHAIN_JITTER = 4
# Chains of this many terms exceed the engines' recursion depth.
CHAIN_PAST_LIMIT = (1100, 1300)

# leaf -> (genus, g1 upper bound or None, canonical Delta at 3 and at -1,
# or None when no rule gives it).  Trefoil: t^2 - t + 1; figure-eight:
# t^2 - 3t + 1; untwisted doubles: 1, with g1 = 1 + g(companion) for a
# nontrivial noncable companion; class-R atoms: declared genus, nothing else.
def leaf_facts(node) -> tuple[int, int | None, tuple[int, int] | None]:
    kind = node[0]
    if kind == "trefoil":
        return 1, 2, (7, 3)
    if kind == "fig8":
        return 1, 2, (1, 5)
    if kind == "wh0" and node[1][0] == "kfam":
        return 1, node[1][1] + 1, (1, 1)
    if kind == "wh0" and node[1] == ("fig8",):
        return 1, 2, (1, 1)
    if kind == "atom":
        return node[2], None, None
    raise ValueError(f"no table entry for leaf {node!r}")


def chain_expect(terms) -> Expect:
    genus, hi, at3, at_m1, known = 0, 0, 1, 1, True
    for leaf in terms:
        g, h, alex = leaf_facts(leaf)
        genus += g
        hi = None if hi is None or h is None else hi + h
        if alex is None:
            known = False
        else:
            at3 *= alex[0]
            at_m1 *= alex[1]
    alex = ((3, at3), (-1, at_m1)) if known else "unknown"
    return Expect((genus, genus), alex, 2 * genus, hi, False, 0)


def _chain_leaf(rng: random.Random, k: int, atoms: bool):
    """The k-th leaf of a chain's fixed mix, before shuffling."""
    kind, turn = k % (6 if atoms else 4), k // (6 if atoms else 4)
    if kind == 0:
        return ("trefoil",)
    if kind == 1:
        return ("fig8",)
    if kind == 2:
        return ("wh0", ("kfam", 1 + turn % 4), "+")
    if kind == 3:
        return ("wh0", ("fig8",), "-")
    turn = 2 * turn + kind - 4
    return ("atom", rng.choice("ABJLXY"), 1 + turn % 3, "no", "no", TRI[turn // 3 % 3])


def _chain(rng: random.Random, length: int, atoms: bool, as_json: bool) -> Request:
    # Every chain of a length holds the same leaves, each kind in equal
    # share; the seed shuffles their order and names the atoms.  Leaves
    # differ in cost by up to 2.5x, so a seeded mix would move a chain's
    # cost by about a tenth, while an order changes it by a few percent.
    terms = [_chain_leaf(rng, k, atoms) for k in range(length)]
    rng.shuffle(terms)
    terms = tuple(terms)
    return _request(("sum", terms), as_json, chain_expect(terms))


def chain_round(rng: random.Random) -> list[Request]:
    flags = _json_flags(rng, len(CHAIN_STRATA))
    return [_chain(rng, lo + rng.randrange(CHAIN_JITTER), atoms, as_json)
            for (lo, atoms), as_json in zip(CHAIN_STRATA, flags)]


def chain_probe(rng: random.Random) -> Request:
    return _chain(rng, rng.randint(*CHAIN_PAST_LIMIT), rng.random() < 0.5, True)


# -- satellite-tree ----------------------------------------------------------------

# (depth of the doubling tree D or None for C alone, D's leaf, C's kind,
# lowest enumerator radius r of C, drawn from [r, r + 2)).  The
# enumerator is O(r^3); the kinds are fixed per stratum because they
# change the cost as much as the seed's other choices.
SAT_STRATA = ((None, None, "wh0", 20), (6, "atom", "ksat", 26), (None, None, "ksat", 36),
              *[(8, "fig8", "wh0", 44)] * 4, *[(10, "kfam", "ksat", 64)] * 3)
SAT_JITTER = 2
# The enumerator's largest certified radius is 128; past it, it raises.
CAP_PAST_LIMIT = (129, 160)


def _class_r_leaf(rng: random.Random, kind: str):
    if kind == "fig8":
        return ("fig8",)
    if kind == "kfam":
        return ("kfam", rng.randint(1, 3))
    return ("atom", rng.choice("ABJLXY"), rng.randint(1, 3), "no", "no", rng.choice(TRI))


def doubling(leaf, depth: int):
    """ksat(X, X, 0, 0) nested `depth` times; every level shares one subtree."""
    node = leaf
    for _ in range(depth):
        node = ("ksat", node, node, 0, 0)
    return node


def companion_expect(g1: int) -> Expect:
    """C alone: genus one, Delta 1, and g1 exactly g + max(1, h), where g, h
    are the companions' genera (h = 0 for an untwisted double)."""
    return Expect((1, 1), "one", g1, g1, True, 0)


def _companion(rng: random.Random, kind: str, radius: int):
    """C of enumerator radius `radius`, which is also its exact g1."""
    if kind == "wh0":
        return ("wh0", ("atom", "A", radius - 1, rng.choice(TRI), "no", rng.choice(TRI)),
                rng.choice("+-"))
    h = rng.randint(1, radius // 2)
    return ("ksat", ("atom", "A", radius - h, "no", "no", rng.choice(TRI)),
            ("atom", "B", h, "no", "no", rng.choice(TRI)), 0, 0)


def satellite_request(rng: random.Random, depth: int | None, leaf: str | None,
                      kind: str, radius: int, as_json: bool) -> Request:
    c = _companion(rng, kind, radius)
    if depth is None:
        return _request(c, as_json, companion_expect(radius))
    d = doubling(_class_r_leaf(rng, leaf), depth)
    # D has genus one and no first-order upper bound; C only adds genus one.
    # Only Ksat levels above the leaves warn, twice each.
    expect = Expect((2, 2), "one", 4, None, True, 2 ** depth - 2)
    return _request(("sum", (d, c)), as_json, expect)


def satellite_round(rng: random.Random) -> list[Request]:
    flags = _json_flags(rng, len(SAT_STRATA))
    return [satellite_request(rng, depth, leaf, kind, r + rng.randrange(SAT_JITTER), as_json)
            for (depth, leaf, kind, r), as_json in zip(SAT_STRATA, flags)]


def satellite_probe(rng: random.Random) -> Request:
    return satellite_request(rng, None, None, "wh0", rng.randint(*CAP_PAST_LIMIT), True)


# -- seifert-det -------------------------------------------------------------------

# A round of 40 inputs in four cost bands, like the CLI strata: 12 cheap
# ones (small theta(n), moved matrices of genus 3-7), then 16 moved
# matrices of genus 8 holding the nearest-rank median (rank 20 of 40),
# then 4 mid-size ones, then the 8 dearest holding the 90th percentile
# (rank 36): theta(16) six times, theta(18) and theta(20).  Moved genus-8
# matrices cost within a few percent of each other, and theta(n) is one
# fixed matrix, so the seed barely moves either percentile.
THETA_CHEAP = ((6, 7), (8, 9))
MOVED_CHEAP = (3, 4, 5, 6, 7) * 2
MOVED_MEDIAN = (8,) * 16
MOVED_MID = (9, 9)
THETA_MID = (13, 14)
THETA_TOP = (16,) * 6 + (18, 20)


def theta_rows(n: int) -> list[list[int]]:
    """The banded pretzel-family Seifert matrix: even rows (-2, ., 2), odd rows (1, ., -1)."""
    size = 2 * n
    m = [[0] * size for _ in range(size)]
    for k in range(n):
        i, j = 2 * k, 2 * k + 1
        if i:
            m[i][i - 1] = -2
        m[i][i + 1] = 2
        m[j][j - 1] = 1
        if j + 1 < size:
            m[j][j + 1] = -1
    return m


def standard_seifert(rng: random.Random, g: int) -> list[list[int]]:
    """A random integer V with V - V^T the standard symplectic form."""
    size = 2 * g
    v = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v[i][j] = v[j][i] = rng.randint(-2, 2)
    for k in range(g):
        v[2 * k][2 * k + 1] += 1
    return v


def seifert_round(rng: random.Random) -> list[dict]:
    """Inputs for the in-process loop: theta(n), and standard matrices to move."""
    thetas = [rng.randint(lo, hi) for lo, hi in THETA_CHEAP] + [*THETA_MID, *THETA_TOP]
    jobs = [{"kind": "theta", "n": n, "V": None} for n in thetas]
    for g in MOVED_CHEAP + MOVED_MEDIAN + MOVED_MID:
        jobs.append({"kind": "moved", "g": g, "V": standard_seifert(rng, g),
                     "seed": rng.randrange(2 ** 31), "length": rng.randint(g, 2 * g)})
    for job in jobs:
        if job["kind"] == "theta":
            job["V"] = theta_rows(job["n"])
    rng.shuffle(jobs)
    return jobs


# -- registry ----------------------------------------------------------------------

CLI_ROUNDS = {
    "pretzel-power": (pretzel_round, None),
    "sum-chain": (chain_round, chain_probe),
    "satellite-tree": (satellite_round, satellite_probe),
}
WORKLOADS = (*CLI_ROUNDS, "seifert-det")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"knotfog-bench:{workload}:{seed}")


def cli_round(workload: str, seed: int) -> list[Request]:
    make, _ = CLI_ROUNDS[workload]
    rng = rng_for(workload, seed)
    reqs = make(rng)
    rng.shuffle(reqs)
    return reqs


def limit_probes(workload: str, seed: int) -> list[Request]:
    """Inputs past a documented engine limit; run outside the measured loop."""
    _, probe = CLI_ROUNDS.get(workload, (None, None))
    return [] if probe is None else [probe(rng_for(workload + ":probe", seed))]
