"""Small shared numeric helpers: extended reals and subspace utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative rank tolerance: singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ExtReal:
    """A finite float or +infinity, kept as a tag so no inf arithmetic occurs."""

    is_finite: bool
    value: float = 0.0

    @staticmethod
    def finite(v) -> "ExtReal":
        return ExtReal(True, float(v))

    @property
    def is_inf(self) -> bool:
        return not self.is_finite

    def __repr__(self):
        return f"{self.value!r}" if self.is_finite else "+inf"


PLUS_INF = ExtReal(False)


def as_vector(x, dim=None, name="vector"):
    v = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


def nullspace_basis(M: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of Null(M). Empty M means the full space."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[1]
    if M.size == 0 or M.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(M)
    tol = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vt[rank:].T.copy()


def matrix_rank_rel(M: np.ndarray, rtol: float = RANK_RTOL) -> int:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > rtol * s[0])) if s.size else 0


def freeze_array(a: np.ndarray, dtype=float) -> np.ndarray:
    """Copy as `dtype` and mark read-only; used by immutable containers."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out
