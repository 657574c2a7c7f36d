"""Shared random generators for the test suite.

Everything is driven by an explicit numpy Generator so tests stay
reproducible; no module-level randomness.
"""

from __future__ import annotations

import numpy as np

from volterra import (
    CubicTensor,
    FaceSpec,
    SparsePoint,
    VolterraOperator,
    sample_face_rng,
    validate_matrix,
    validate_tensor,
)


def rand_support(rng: np.random.Generator, pool: int, max_size: int) -> tuple[int, ...]:
    size = int(rng.integers(1, max_size + 1))
    return tuple(sorted(rng.choice(np.arange(1, pool + 1), size=size, replace=False)))


def rand_point(rng: np.random.Generator, indices) -> SparsePoint:
    return sample_face_rng(FaceSpec.of(indices), rng)


def rand_point_on_pool(
    rng: np.random.Generator, pool: int, max_size: int
) -> SparsePoint:
    return rand_point(rng, rand_support(rng, pool, max_size))


def rand_skew_triples(rng: np.random.Generator, n: int) -> list[list[float]]:
    triples = []
    for k in range(1, n + 1):
        for i in range(k + 1, n + 1):
            triples.append([k, i, float(rng.uniform(-1.0, 1.0))])
    return triples


def rand_skew_operator(rng: np.random.Generator, n: int):
    from volterra import quadratic_operator

    matrix = validate_matrix(rand_skew_triples(rng, n))
    return matrix, quadratic_operator(matrix)


def rand_volterra_tensor(rng: np.random.Generator, n: int) -> CubicTensor:
    """A random face-invariant cubic tensor over 1..n."""
    raw = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for l in range(j, n + 1):
                members = sorted(set((i, j, l)))
                if len(members) == 1:
                    raw[(i, j, l)] = {i: 1.0}
                else:
                    weights = rng.dirichlet(np.ones(len(members)))
                    raw[(i, j, l)] = {
                        m: float(w) for m, w in zip(members, weights)
                    }
    return validate_tensor(raw)


def rand_defective_cells(rng: np.random.Generator, n: int) -> list[list[float]]:
    """Random matrix triples with a guaranteed nonzero symmetric part.

    Either the (1,1) diagonal entry or the symmetric part of the (1,2)
    pair is forced to at least 0.1 in magnitude.
    """
    cells: dict[tuple[int, int], float] = {}
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if k != i:
                cells[(k, i)] = float(rng.uniform(-1.0, 1.0))
    defect = float(rng.uniform(0.1, 0.9))
    if rng.integers(2):
        cells[(1, 1)] = defect
    else:
        cells[(2, 1)] = defect - cells[(1, 2)]
    return [[k, i, v] for (k, i), v in sorted(cells.items())]


def linear_operator_from_cells(cells) -> VolterraOperator:
    """f_k(x) = sum_i b_ki x_i from raw (possibly non-skew) cells, as the
    growth factor g_k = 1 + f_k."""
    rows: dict[int, dict[int, float]] = {}
    for k, i, v in cells:
        row = rows.setdefault(int(k), {})
        row[int(i)] = row.get(int(i), 0.0) + float(v)

    def fn(ks, X):
        out = []
        for k in ks:
            row = rows.get(k, {})
            out.append(1.0 + sum(row.get(i, 0.0) * m for i, m in zip(ks, X)))
        return out

    return VolterraOperator(fn, label="raw_linear")
