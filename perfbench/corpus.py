"""Seeded request corpora for the three benchmark workloads.

Every input the program receives is generated here, from the standard
library only.  Each workload is a fixed list of slots; a slot fixes the kind
of request and the sizes that set its cost (vertex count, edge count, term
count), and holds a small pool of variants.  The workload seed picks one
variant per slot and the request order, so the work in one pass barely
depends on the seed while the inputs do.  The pools are finite so that the
stdout of every request the benchmark can issue has a reference digest
recorded in ``reference.json``.

The variants of one CLI or dense-yg slot are random relabellings of one
template graph or element support.  Relabelling changes the input bytes but
not the amount of work, so a slot costs the same whichever variant a seed
picks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations

WORKLOADS = ("cli-oneshot", "dense-yg", "verify-sweep")

# Seed kept out of every run made while the benchmark and later changes were
# tuned; claims of a gain are confirmed on it.
HELD_OUT_SEED = 7919

CLI_VARIANTS = 12
DENSE_VARIANTS = 6
VERIFY_SEEDS = (101, 202, 303, 404, 505, 606)

# Untimed cross-check of dense-yg against deletion-contraction: this many
# graphs of each run's corpus, chosen by the seed.
CROSSCHECK_COUNT = 6


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ncsym arguments plus the bytes fed to stdin."""

    key: str
    argv: tuple[str, ...]
    stdin: str

    def to_json(self) -> dict:
        return {"key": self.key, "argv": list(self.argv), "stdin": self.stdin}


@dataclass(frozen=True)
class GraphItem:
    """One dense-yg library call: a graph in the ncsym text format."""

    key: str
    n: int
    edge_count: int
    text: str

    def to_json(self) -> dict:
        return {"key": self.key, "n": self.n, "edge_count": self.edge_count,
                "text": self.text}


def _key(*parts: object) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _rng(*parts: object) -> random.Random:
    # string seeds hash through SHA-512, which is stable across Python versions
    return random.Random("perfbench:" + ":".join(str(p) for p in parts))


def _make_request(argv: list[str], stdin: str) -> Request:
    return Request(_key(argv, stdin), tuple(argv), stdin)


# ---------------------------------------------------------------------------
# graphs


def graph_text(n: int, edges) -> str:
    canon = sorted((u, v) if u < v else (v, u) for u, v in edges)
    return f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in canon)


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return [(images[u - 1], images[v - 1]) for u, v in edges]


def _pruefer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(1, n + 1) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(1, n + 1) if degree[w] == 1]
    edges.append((u, v))
    return edges


def _gnm(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    return rng.sample(list(combinations(range(1, n + 1), 2)), m)


def family_edges(family: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of one randomly labelled member of a graph family.

    'path', 'cycle' and 'star' are relabelled copies; 'tree' is a uniform
    labelled tree; 'gnm<p>' is a uniform graph with round(p * C(n, 2)) edges.
    """
    if family == "path":
        return _relabel(n, [(i, i + 1) for i in range(1, n)], rng)
    if family == "cycle":
        return _relabel(n, [(i, i + 1) for i in range(1, n)] + [(1, n)], rng)
    if family == "star":
        return _relabel(n, [(1, i) for i in range(2, n + 1)], rng)
    if family == "tree":
        return _pruefer_tree(n, rng)
    if family.startswith("gnm"):
        p = float(family[3:])
        return _gnm(n, round(p * n * (n - 1) / 2), rng)
    raise ValueError(f"unknown graph family {family!r}")


# ---------------------------------------------------------------------------
# cli-oneshot


def _random_support(n: int, terms: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Distinct set partitions of [n] as restricted growth strings."""
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < terms:
        rgs = [0]
        for _ in range(n - 1):
            rgs.append(rng.randrange(max(rgs) + 2))
        chosen.add(tuple(rgs))
    return sorted(chosen)


def _element_json(basis: str, n: int, support: list[tuple[int, ...]],
                  rng: random.Random) -> str:
    """An element in the shape `expand --json` emits: the support relabelled
    by a random permutation of [n], with random small rational coefficients."""
    images = list(range(n))
    rng.shuffle(images)
    terms = []
    for rgs in support:
        blocks: dict[int, list[int]] = {}
        for i, b in enumerate(rgs):
            blocks.setdefault(b, []).append(images[i] + 1)
        canon = sorted(sorted(block) for block in blocks.values())
        terms.append(("/".join(",".join(map(str, b)) for b in canon),
                      rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])))
    entries = [{"partition": text, "num": num, "den": den}
               for text, num, den in sorted(terms)]
    return json.dumps({"basis": basis, "degree": n, "terms": entries},
                      indent=2, sort_keys=True) + "\n"


# (command, n, detail, terms): detail is a graph family for graph commands,
# a 'source>target' pair for convert (with the term count of the random
# input element), a strategy for basis.
CLI_SLOTS: tuple[tuple[str, int, str, str], ...] = (
    # expand into p, m, e, x at n = 6..8
    ("expand:p", 6, "path", ""), ("expand:m", 6, "cycle", ""),
    ("expand:m", 6, "tree", ""), ("expand:e", 6, "star", ""),
    ("expand:e", 6, "gnm0.4", ""), ("expand:x", 6, "tree", ""),
    ("expand:p", 7, "cycle", ""), ("expand:m", 7, "star", ""),
    ("expand:m", 7, "gnm0.35", ""), ("expand:e", 7, "path", ""),
    ("expand:e", 7, "tree", ""), ("expand:x", 7, "cycle", ""),
    ("expand:x", 7, "gnm0.3", ""), ("expand:p", 8, "gnm0.4", ""),
    ("expand:m", 8, "path", ""), ("expand:e", 7, "cycle", ""),
    ("expand:e", 8, "gnm0.3", ""), ("expand:x", 8, "cycle", ""),
    ("expand:x", 7, "star", ""),
    # expand into h only at n = 6: p->h costs about 0.8 s at n = 7 and
    # 10-13 s cold at n = 8
    ("expand:h", 6, "cycle", ""), ("expand:h", 6, "gnm0.35", ""),
    ("expand:h", 6, "tree", ""),
    # classify at n = 7..8: n = 9 costs 1.4 s, a fifth of a pass
    ("classify", 7, "cycle", ""), ("classify", 7, "gnm0.35", ""),
    ("classify", 8, "tree", ""), ("classify", 8, "gnm0.3", ""),
    # convert e/x element JSON into m/h
    ("convert", 6, "e>m", "40"), ("convert", 6, "e>h", "40"),
    ("convert", 6, "x>m", "40"), ("convert", 6, "x>h", "40"),
    ("convert", 7, "e>m", "20"), ("convert", 7, "x>m", "20"),
    # chromatic bases: both strategies at n = 5, the path strategy at n = 6
    ("basis", 5, "path", ""), ("basis", 5, "clique", ""),
    ("basis", 6, "path", ""),
    # graph facts
    ("info", 1, "path", ""), ("info", 6, "gnm0.4", ""),
    ("info", 8, "tree", ""), ("info", 9, "cycle", ""),
)


def _cli_variant(slot: int, variant: int) -> Request:
    command, n, detail, extra = CLI_SLOTS[slot]
    template = _rng("cli-oneshot", "template", slot)
    rng = _rng("cli-oneshot", slot, variant)
    if command == "basis":
        return _make_request(["basis", "--n", str(n), "--strategy", detail, "--json"], "")
    if command == "convert":
        source, target = detail.split(">")
        stdin = _element_json(source, n, _random_support(n, int(extra), template), rng)
        return _make_request(["convert", "--expr", "-", "--from", source,
                              "--to", target, "--json"], stdin)
    stdin = graph_text(n, _relabel(n, family_edges(detail, n, template), rng))
    if command.startswith("expand:"):
        basis = command.split(":")[1]
        return _make_request(["expand", "--graph", "-", "--basis", basis, "--json"], stdin)
    return _make_request([command, "--graph", "-", "--json"], stdin)


def _cli_variant_count(slot: int) -> int:
    # basis requests take no input, so they have a single variant
    return 1 if CLI_SLOTS[slot][0] == "basis" else CLI_VARIANTS


def cli_requests(seed: int) -> list[Request]:
    rng = _rng("cli-oneshot", "select", seed)
    requests = [_cli_variant(slot, rng.randrange(_cli_variant_count(slot)))
                for slot in range(len(CLI_SLOTS))]
    rng.shuffle(requests)
    return requests


def cli_pool() -> list[Request]:
    return [_cli_variant(slot, v) for slot in range(len(CLI_SLOTS))
            for v in range(_cli_variant_count(slot))]


SETUP_REQUEST = _make_request(["info", "--graph", "-", "--json"], graph_text(1, []))


# ---------------------------------------------------------------------------
# dense-yg

# (n, edge count, graphs per pass).  The edge counts straddle the 18-edge
# switch of the 'auto' route: <= 18 takes edge subsets, > 18 the lattice.
# On 7 vertices there are only two graphs with 19 edges and one with 20, up
# to isomorphism.  K_8 is left out: its 4.3 s alone would be two thirds of
# a pass, leaving too few passes in a run for a steady median per graph.
# The counts put the median graph inside the 15-edge graphs (about 0.1 s)
# and the tail percentile inside the 16-edge ones (about 0.18 s), where many
# graphs cost about the same, rather than at a jump in cost between
# classes, where one graph's noise would move the percentile.
DENSE_CLASSES: tuple[tuple[int, int, int], ...] = (
    (7, 21, 1),                                   # K_7
    (7, 13, 5), (7, 14, 4), (7, 15, 6), (7, 16, 7), (7, 19, 2), (7, 20, 1),
    (8, 14, 4), (8, 15, 6), (8, 16, 6), (8, 19, 1),
)


@functools.cache
def _dense_templates() -> tuple[tuple[int, int, tuple], ...]:
    """One fixed random G(n, m) per dense slot, pairwise non-isomorphic."""
    templates = []
    for n, m, count in DENSE_CLASSES:
        pairs = list(combinations(range(1, n + 1), 2))
        rng = _rng("dense-yg", "template", n, m)
        seen: set[tuple] = set()
        attempts = 0
        while len(seen) < count:
            attempts += 1
            if attempts > 10_000:
                raise ValueError(f"fewer than {count} distinct G({n}, {m}) found")
            edges = tuple(sorted(rng.sample(pairs, m)))
            invariant = _isomorphism_invariant(n, edges)
            if invariant not in seen:
                seen.add(invariant)
                templates.append((n, m, edges))
    return tuple(templates)


def _isomorphism_invariant(n: int, edges) -> tuple:
    # sorted degree sequence with each vertex's sorted neighbour degrees;
    # graphs with different invariants are never isomorphic
    degree = [0] * (n + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    neighbours: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        neighbours[u].append(degree[v])
        neighbours[v].append(degree[u])
    return tuple(sorted((degree[v], tuple(sorted(neighbours[v]))) for v in range(1, n + 1)))


def _dense_variant(slot: int, variant: int) -> GraphItem:
    n, m, edges = _dense_templates()[slot]
    if m < n * (n - 1) // 2:
        edges = _relabel(n, edges, _rng("dense-yg", slot, variant))
    text = graph_text(n, edges)
    return GraphItem(_key("dense-yg", text), n, m, text)


def _dense_variant_count(slot: int) -> int:
    n, m, _edges = _dense_templates()[slot]
    return 1 if m == n * (n - 1) // 2 else DENSE_VARIANTS


def dense_pool() -> list[GraphItem]:
    return [_dense_variant(slot, v) for slot in range(len(_dense_templates()))
            for v in range(_dense_variant_count(slot))]


def dense_graphs(seed: int) -> list[GraphItem]:
    """One relabelling of each template: no two graphs of a pass are
    isomorphic, so neither the per-graph 'auto' cache nor any cache up to
    isomorphism can hit within a pass."""
    rng = _rng("dense-yg", "select", seed)
    graphs = [_dense_variant(slot, rng.randrange(_dense_variant_count(slot)))
              for slot in range(len(_dense_templates()))]
    rng.shuffle(graphs)
    return graphs


def crosscheck_graphs(seed: int, graphs: list[GraphItem]) -> list[GraphItem]:
    rng = _rng("dense-yg", "crosscheck", seed)
    return rng.sample(graphs, min(CROSSCHECK_COUNT, len(graphs)))


# ---------------------------------------------------------------------------
# verify-sweep

VERIFY_SIZES: tuple[tuple[str, int], ...] = (
    ("agreement", 5), ("epos-scan", 4), ("xsign-scan", 5), ("kdeletion", 4),
    ("trees", 5), ("multiplicativity", 6), ("bases", 5),
    ("roundtrip", 6), ("relabeling", 6),
)


def _verify_request(suite: str, n: int, verify_seed: int) -> Request:
    # no --workers: the default worker count is what users run
    return _make_request(["verify", "--suite", suite, "--n", str(n),
                          "--seed", str(verify_seed), "--json"], "")


def verify_requests(seed: int) -> list[Request]:
    rng = _rng("verify-sweep", "select", seed)
    verify_seed = VERIFY_SEEDS[rng.randrange(len(VERIFY_SEEDS))]
    requests = [_verify_request(suite, n, verify_seed) for suite, n in VERIFY_SIZES]
    rng.shuffle(requests)
    return requests


def verify_pool() -> list[Request]:
    return [_verify_request(suite, n, s) for s in VERIFY_SEEDS for suite, n in VERIFY_SIZES]


def corpus_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization of a workload's corpus, for determinism checks."""
    if workload == "dense-yg":
        items = [g.to_json() for g in dense_graphs(seed)]
    elif workload == "cli-oneshot":
        items = [r.to_json() for r in cli_requests(seed)]
    elif workload == "verify-sweep":
        items = [r.to_json() for r in verify_requests(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(items, sort_keys=True).encode()
