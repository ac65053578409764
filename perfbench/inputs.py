"""Seeded inputs for the four workloads.

Standard library only, so that the inputs do not depend on the code under
test: the program receives nothing but the forest text (and, for
quadrature, the numeric point) generated here.  The same workload and seed
always give the same inputs, byte for byte.

A tree shape is a sorted tuple of child shapes; a forest shape is a tuple
of tree shapes.  Weights are listed in preorder, which is also the order in
which the forest parser numbers the vertices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

WORKLOADS = ("trees", "forests", "cli", "oracle")

# Distinct small rationals p/q; every random weight is drawn from here.
WEIGHTS = tuple(
    sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 5)})
)
SCALES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
          Fraction(3, 2), Fraction(2, 3), Fraction(5, 2))
QUAD_XS = (0.5, 1.0, 2.0)


@lru_cache(maxsize=None)
def tree_shapes(n: int) -> tuple:
    """Every rooted tree shape with n vertices, in canonical order."""
    return tuple(sorted(forest_shapes(n - 1))) if n >= 1 else ()


@lru_cache(maxsize=None)
def forest_shapes(n: int) -> tuple:
    """Every multiset of tree shapes with n vertices in total."""
    if n == 0:
        return ((),)
    out = set()
    for k in range(1, n + 1):
        for t in tree_shapes(k):
            for rest in forest_shapes(n - k):
                out.add(tuple(sorted(rest + (t,))))
    return tuple(sorted(out))


def size(shape: tuple) -> int:
    return 1 + sum(size(c) for c in shape)


def leaves(shape: tuple) -> int:
    return 1 if not shape else sum(leaves(c) for c in shape)


def ladder(n: int) -> tuple:
    shape = ()
    for _ in range(n - 1):
        shape = (shape,)
    return shape


def corolla(n: int) -> tuple:
    return ((),) * (n - 1)


def render(trees: list, weights: list) -> str:
    """Forest text in the canonical-mode grammar; weights in preorder."""
    it = iter(weights)

    def tree(shape: tuple) -> str:
        w = next(it)
        kids = " ".join(tree(c) for c in shape)
        return f"({w} {kids})" if kids else f"({w})"

    return " ".join(tree(t) for t in trees)


def similarity_key(shape: tuple, weights: list) -> str:
    """Equal for two weighted trees exactly when one is a rescaling of the other."""
    total = sum(weights)
    it = iter(w / total for w in weights)

    def enc(s: tuple) -> str:
        w = next(it)
        return f"({w}|{','.join(sorted(enc(c) for c in s))})"

    return enc(shape)


def similar_share(trees: list) -> float:
    """Share of (shape, weights) trees that rescale a tree seen earlier."""
    seen = set()
    repeats = 0
    for shape, weights in trees:
        key = similarity_key(shape, weights)
        repeats += key in seen
        seen.add(key)
    return repeats / len(trees) if trees else 0.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"forestren-bench:{workload}:{seed}")


def _weights(rng: random.Random, n: int) -> list:
    return rng.sample(WEIGHTS, n)


def _renorm_input(trees: list, weights: list, family: str) -> dict:
    parts, k = [], 0
    for t in trees:
        parts.append((t, weights[k:k + size(t)]))
        k += size(t)
    return {"kind": "renorm", "text": render(trees, weights),
            "degree": len(weights), "family": family, "parts": parts}


def trees_inputs(seed: int) -> list:
    """Single trees of even degree, no two of them similar.

    The frontier families, and four more 8-vertex shapes with 3 leaves, use
    unit weights, so that a symmetry-orbit memo has something to act on; the
    random trees use distinct random weights.  Every 6-vertex shape appears
    once.  The random 8-vertex shapes are drawn from those with 3 or 4
    leaves, whose solve times lie close together, so that every seed costs
    about the same.  Exactly ten trees take longer than the 8-ladder, so the
    tail percentile is the 8-ladder's time.
    """
    rng = _rng("trees", seed)
    out = [_renorm_input([ladder(n)], [1] * n, "ladder") for n in (6, 8, 10)]
    out += [_renorm_input([corolla(n)], [1] * n, "corolla") for n in (6, 8)]
    out += [_renorm_input([s], [1] * 8, "unit")
            for s in [s for s in tree_shapes(8) if leaves(s) == 3][:4]]
    seen = set()
    randoms = list(tree_shapes(6))
    for k in (3, 3, 4, 4):
        pool = [s for s in tree_shapes(8) if leaves(s) == k and s not in randoms]
        randoms.append(rng.choice(pool))
    for shape in randoms:
        weights = _weights(rng, size(shape))
        while similarity_key(shape, weights) in seen:
            weights = _weights(rng, size(shape))
        seen.add(similarity_key(shape, weights))
        out.append(_renorm_input([shape], weights, "random"))
    rng.shuffle(out)
    return out


# Forest pool: small shapes by vertex count.  Trees in the forests are
# rescaled copies of a few prototypes built on these shapes.
POOL = {
    1: [()],
    2: [ladder(2)],
    3: [ladder(3), corolla(3)],
    4: [ladder(4), corolla(4), (((), ()),), (((),), ())],
}

# Tree sizes per (kind, total degree).  "even": every tree even, value
# usually nonzero; "odd-tree": even total with an odd tree, value 0;
# "odd-total": odd total, value 0.
COMPOSITIONS = {
    ("even", 8): [(4, 4), (2, 2, 4), (2, 2, 2, 2)],
    ("even", 10): [(2, 4, 4), (2, 2, 2, 4), (2, 2, 2, 2, 2)],
    ("odd-tree", 8): [(1, 3, 4), (2, 3, 3), (1, 1, 2, 4), (1, 2, 2, 3)],
    ("odd-tree", 10): [(3, 3, 4), (1, 2, 3, 4), (2, 2, 3, 3), (1, 1, 4, 4)],
    ("odd-total", 11): [(3, 4, 4), (1, 2, 4, 4), (2, 2, 3, 4), (2, 3, 3, 3)],
}
# Per kind: (degree, count) groups.  Expanding the numerator of any
# 11-vertex forest costs the same, and those forests sit between the 8- and
# the 10-vertex ones, so the median and the tail percentile both fall in
# that tight cluster.
FOREST_MIX = {
    "even": ((8, 5), (10, 2)),
    "odd-tree": ((8, 5), (10, 2)),
    "odd-total": ((11, 9),),
}
# One even forest per pass has this fixed shape, the largest projection the
# pool can make, so that peak memory does not depend on the seed.
ANCHOR = (ladder(2), corolla(4), corolla(4))


def forests_inputs(seed: int) -> list:
    """Forests of 2-5 trees, total degree 8-11, three kinds in equal parts.

    Each tree is one of two weighted prototypes per pool shape, rescaled by
    a random factor, so many trees are similar to an earlier one.
    """
    rng = _rng("forests", seed)
    protos = {k: [(s, _weights(rng, k)) for s in shapes for _ in range(2)]
              for k, shapes in POOL.items()}
    out = []
    for kind, groups in FOREST_MIX.items():
        for deg, count in groups:
            for i in range(count):
                if (kind, deg, i) == ("even", 10, 0):
                    picks = [rng.choice([p for p in protos[size(s)] if p[0] == s])
                             for s in ANCHOR]
                else:
                    sizes = rng.choice(COMPOSITIONS[(kind, deg)])
                    picks = [rng.choice(protos[k]) for k in sizes]
                rng.shuffle(picks)
                trees, weights = [], []
                for shape, base in picks:
                    scale = rng.choice(SCALES)
                    trees.append(shape)
                    weights += [w * scale for w in base]
                out.append(_renorm_input(trees, weights, kind))
    rng.shuffle(out)
    return out


def _random_forest(rng: random.Random, n: int) -> tuple[list, list]:
    shape = list(rng.choice(forest_shapes(n)))
    return shape, _weights(rng, n)


def cli_inputs(seed: int) -> list:
    """CLI calls on small forests (degree <= 6), one child process each."""
    rng = _rng("cli", seed)
    calls = []

    def call(cmd: str, texts: list) -> None:
        k = len(calls)
        names = [f"c{k:02d}{chr(97 + i)}.forest" for i in range(len(texts))]
        calls.append({"kind": "cli", "argv": [cmd] + names,
                      "files": dict(zip(names, texts))})

    for n in (2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6):
        call("renorm", [render(*_random_forest(rng, n))])
    for n1, n2 in ((2, 3), (3, 4), (4, 4), (3, 5)):
        call("renorm", [render(*_random_forest(rng, n)) for n in (n1, n2)])
    for n in (3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6):
        call("regularize", [render(*_random_forest(rng, n))])
    for n in (2, 2, 3, 3, 3, 3):
        call("germ", [render(*_random_forest(rng, n))])
    for i, n in enumerate((3, 3, 4, 4, 4, 5, 5, 5, 3, 4, 5, 4, 3, 4, 5, 5)):
        trees, ws = _random_forest(rng, n)
        if i % 2 == 0:
            scale = rng.choice(SCALES[1:])
            other = [w * scale for w in ws]
        else:
            other = _weights(rng, n)
        call("check-similar", [render(trees, ws), render(trees, other)])
    rng.shuffle(calls)
    return calls


# Quadrature shapes and points: fixed up to a small seeded jitter, so that
# every seed refines its grids equally deeply; a level deeper costs twice the
# time and four times the memory.  Two-vertex trees are left out: their
# convergence level swings with the point.
QUAD_SHAPES = (ladder(3), corolla(3), ladder(4), corolla(4), (((), ()),),
               (((),), ()), ladder(5), corolla(5), (((), ()), ()),
               ((((),),), ()), (((), (), ()),), ladder(6),
               ((((),),), ((),)), (((), ()), ((),)), corolla(6),
               (((),), ((),), ()))


def oracle_inputs(seed: int) -> list:
    """Independent cross-checks on small forests.

    Quadrature runs on the fixed trees above (3-6 vertices) at seeded
    points; the subset and telescoping references on random forests of 3-5
    vertices, which cost less than any quadrature, so that the median falls
    among the 4-vertex quadratures and the tail among the 6-vertex ones.
    """
    rng = _rng("oracle", seed)
    out = []
    for shape in QUAD_SHAPES:
        n = size(shape)
        text = render([shape], _weights(rng, n))
        point = [0.9 / n * 0.75 * rng.uniform(0.97, 1.03) for _ in range(n)]
        for x in QUAD_XS:
            out.append({"kind": "quad", "text": text, "point": point, "x": x,
                        "degree": n})
    for kind in ("subset", "telescoping"):
        for n in (3, 4, 4, 4, 5, 5, 5, 5):
            trees, ws = _random_forest(rng, n)
            out.append({"kind": kind, "text": render(trees, ws), "degree": n})
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> list:
    """The fixed input list of one pass, each input with a stable id."""
    make = {"trees": trees_inputs, "forests": forests_inputs,
            "cli": cli_inputs, "oracle": oracle_inputs}[workload]
    items = make(seed)
    for k, item in enumerate(items):
        item.setdefault("id", f"{workload[0]}{k:02d}")
    return items


def probe_inputs() -> list:
    """One tiny input per unit kind: the warm-up, and the traced probe that
    makes every layer report a measured value in every workload."""
    text = "(1 (1))"
    return [
        {"id": "probe-renorm", "kind": "renorm", "text": text, "degree": 2},
        {"id": "probe-quad", "kind": "quad", "text": text, "degree": 2,
         "point": [0.4, 0.3], "x": 1.0},
        {"id": "probe-subset", "kind": "subset", "text": text, "degree": 2},
        {"id": "probe-telescoping", "kind": "telescoping", "text": text,
         "degree": 2},
        {"id": "probe-cli", "kind": "cli", "argv": ["renorm", "probe.forest"],
         "files": {"probe.forest": text}},
    ]
