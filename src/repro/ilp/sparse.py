"""CSR helpers shared by the solvers and the certificate layer.

Every stage after the model reads constraint rows as canonical CSR:
float64 data, column indices sorted within each row, no duplicate and
no stored zero.  ``scipy.sparse`` is imported on first use, never at
module import, so importing the synthesis stack stays numpy-only.
"""

from __future__ import annotations

import numpy as np


def as_csr(a, n: int):
    """``a`` (dense, sparse or empty) as a canonical ``m x n`` CSR matrix.

    An empty input (size 0) becomes a ``0 x n`` matrix.  A sparse input
    is copied before it is canonicalized, never mutated.
    """
    from scipy.sparse import csr_matrix, issparse

    if issparse(a):
        a = csr_matrix(a, dtype=float)
        if not a.has_canonical_format or not np.all(a.data):
            a = a.copy()
            a.sum_duplicates()
            a.eliminate_zeros()
        return a
    a = np.asarray(a, dtype=float)
    if not a.size:
        return csr_matrix((0, n))
    return csr_matrix(a.reshape(-1, n))
