"""Shared generators for the test suite: shapes, random forests, pairs."""

import ast
import random
from fractions import Fraction
from pathlib import Path

from forestren import InnerProduct, concat
from forestren.forest import forest_shapes, from_shape, shape_size


def ladder_shape(n):
    """The n-vertex path tree (each vertex one child), as a forest shape."""
    s = ()
    for _ in range(n - 1):
        s = (s,)
    return (s,)


def corolla_shape(n):
    """One root with n-1 leaf children."""
    return ((((),) * (n - 1)),)


def shapes_up_to(n):
    return [s for k in range(1, n + 1) for s in forest_shapes(k)]


def random_weights(rng, n, allow_fractions=False):
    if allow_fractions:
        return [Fraction(rng.randint(1, 9), rng.choice([1, 1, 2, 3])) for _ in range(n)]
    return [Fraction(rng.randint(1, 9)) for _ in range(n)]


def random_forest(rng, max_vertices, min_vertices=1, allow_fractions=False):
    """A random canonical-mode forest with its diagonal inner product."""
    pool = [
        s
        for k in range(min_vertices, max_vertices + 1)
        for s in forest_shapes(k)
    ]
    shape = rng.choice(pool)
    n = shape_size(shape)
    return from_shape(shape, random_weights(rng, n, allow_fractions))


def merge_diagonal(Q1, Q2):
    weights = {}
    for Q in (Q1, Q2):
        for i in Q.indices:
            weights[i] = Q.entry(i, i)
    return InnerProduct.diagonal(weights)


def independent_pair(rng, max_each, allow_fractions=False):
    """Two forests on disjoint basis directions, plus the merged Q and concat."""
    s1 = rng.choice(shapes_up_to(max_each))
    s2 = rng.choice(shapes_up_to(max_each))
    n1, n2 = shape_size(s1), shape_size(s2)
    f1, Q1 = from_shape(s1, random_weights(rng, n1, allow_fractions))
    f2, Q2 = from_shape(s2, random_weights(rng, n2, allow_fractions), id_start=n1)
    Q = merge_diagonal(Q1, Q2)
    return f1, f2, Q, concat(f1, f2, Q)


def imported_modules(module):
    """The last dotted component of every name a module's source imports."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update([node.module or ""] + [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    return {name.split(".")[-1] for name in names}
