"""Seeded benchmark inputs and a reference evaluation of every operator.

The program receives only what this module generates: tagged operator
specs (the JSON objects ``volterra.cli.build_operator`` reads) and points
in their JSON form (decimal index strings mapping to masses).  Every draw
comes from ``numpy.random.default_rng([seed, *keys])``, so a seed fixes
the inputs of a whole run.

``Reference`` evaluates the generating map of a spec with numpy on dense
vectors, from the formulas in the paper and the README, without calling
the program.  The oracle uses it to recheck witnesses, images and
residuals the program reports.
"""

from __future__ import annotations

import math

import numpy as np


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def flat_point(rng: np.random.Generator, indices) -> dict[str, float]:
    """A flat-Dirichlet point supported exactly on ``indices``."""
    g = rng.exponential(size=len(indices))
    g /= g.sum()
    return {str(k): float(m) for k, m in zip(indices, g)}


def point_from_masses(indices, masses) -> dict[str, float]:
    total = float(np.sum(masses))
    return {str(k): float(m) / total for k, m in zip(indices, masses) if m > 0.0}


EXAMPLE31 = {"type": "example31"}
EXAMPLE32 = {"type": "example32"}
SINE = {"type": "sine"}


def skew_spec(rng: np.random.Generator, d: int) -> dict:
    """A fully filled skew matrix on 1..d, upper entries uniform in (-1, 1)."""
    matrix = [
        [k, i, float(rng.uniform(-1.0, 1.0))]
        for k in range(1, d + 1)
        for i in range(k + 1, d + 1)
    ]
    return {"type": "quadratic", "matrix": matrix}


def sparse_skew_spec(rng: np.random.Generator, d: int, per_row: int) -> dict:
    """A skew matrix on 1..d with about ``per_row`` nonzeros in each row."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < d * per_row // 2:
        a, b = (int(v) for v in rng.integers(1, d + 1, size=2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    ordered = sorted(pairs)
    values = rng.uniform(-1.0, 1.0, size=len(ordered))
    return {"type": "quadratic", "matrix": [[a, b, float(v)] for (a, b), v in zip(ordered, values)]}


def example31_tensor_spec(rng: np.random.Generator, n: int) -> dict:
    """The explicit tensor of example31 over 1..n as a ``cubic_tensor`` spec.

    Rows follow the README: p_{ikk,k} = 1, p_{iik,k} = 0 and p_{ijk,k} = 1/3
    for distinct i, j, k.  The index order inside each triple and the order
    of the list are shuffled, so loading exercises canonicalization.
    """
    triples = []
    third = 1.0 / 3.0
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            for c in range(b, n + 1):
                if a == b == c:
                    outputs = {str(a): 1.0}
                elif a == b:
                    outputs = {str(a): 1.0}
                elif b == c:
                    outputs = {str(b): 1.0}
                else:
                    outputs = {str(a): third, str(b): third, str(c): third}
                triple = [a, b, c]
                rng.shuffle(triple)
                triples.append({"triple": [int(v) for v in triple], "outputs": outputs})
    order = rng.permutation(len(triples))
    return {"type": "cubic_tensor", "triples": [triples[i] for i in order]}


def compose_spec(first: dict, second: dict) -> dict:
    return {"type": "compose", "operators": [first, second]}


def convex_spec(first: dict, second: dict, lam: float) -> dict:
    return {"type": "convex", "operators": [first, second], "lambda": lam}


# ---------------------------------------------------------------------------
# Reference arithmetic
# ---------------------------------------------------------------------------


def dense(point: dict[str, float], dim: int) -> np.ndarray:
    """Dense mass vector over indices 1..dim (slot 0 is index 1)."""
    x = np.zeros(dim)
    for k, m in point.items():
        x[int(k) - 1] = m
    return x


def _sinpi(t: float) -> float:
    n = math.floor(t)
    r = t - n
    if r > 0.5:
        r = 1.0 - r
    v = math.sin(math.pi * r)
    return -v if n % 2 else v


class Reference:
    """Generating map f of a spec, evaluated on dense vectors."""

    def __init__(self, spec: dict):
        self.tag = spec["type"]
        if self.tag == "quadratic":
            upper = np.array([[r[0], r[1]] for r in spec["matrix"]], dtype=int) - 1
            values = np.array([r[2] for r in spec["matrix"]], dtype=float)
            self.rows = np.concatenate([upper[:, 0], upper[:, 1]])
            self.cols = np.concatenate([upper[:, 1], upper[:, 0]])
            self.vals = np.concatenate([values, -values])
        elif self.tag in ("compose", "convex"):
            self.parts = [Reference(s) for s in spec["operators"]]
            self.lam = float(spec.get("lambda", 0.0))

    def f(self, x: np.ndarray) -> np.ndarray:
        tag = self.tag
        if tag in ("example31", "cubic_tensor"):
            # The only tensor the benchmark loads is example31's, so its
            # generating map is example31's; the oracle cross-checks
            # tensor images against the ordered-sum form separately.
            return x - float(np.dot(x, x))
        if tag == "example32":
            before = np.concatenate(([0.0], np.cumsum(x)[:-1]))
            before_sq = np.concatenate(([0.0], np.cumsum(x * x)[:-1]))
            pairs = (before * before - before_sq) / 2.0
            return x * x + 3.0 * before - 3.0 * pairs - 1.0
        if tag == "quadratic":
            inside = (self.cols < len(x)) & (self.rows < len(x))
            weights = self.vals[inside] * x[self.cols[inside]]
            return np.bincount(self.rows[inside], weights=weights, minlength=len(x))
        if tag == "sine":
            s = _sinpi(float(x[0]))
            out = np.zeros(len(x))
            out[0] = -s
            out[1] = x[0] * s / x[1] if x[1] > 0.0 else math.pi
            return out
        if tag == "compose":
            outer, inner = self.parts
            f2 = inner.f(x)
            f1 = outer.f(x * (1.0 + f2))
            return f2 + f1 + f2 * f1
        if tag == "convex":
            return self.lam * self.parts[0].f(x) + (1.0 - self.lam) * self.parts[1].f(x)
        raise ValueError(f"no reference for operator type {tag!r}")

    def image(self, x: np.ndarray) -> np.ndarray:
        """Raw image x_k (1 + f_k(x)), zero off the support of x."""
        return np.where(x > 0.0, x * (1.0 + self.f(x)), 0.0)

    def pair_value(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x, self.f(y)) + np.dot(y, self.f(x)))
