"""Power moments of the cell state, the hot loop of the per-step entropy
report (:func:`crossdiff.diagnostics.entropy_trace`): every entropy
polynomial of degree <= n is a weighted sum of these moments."""

from __future__ import annotations

import numpy as np


def power_moments(f, g, n):
    """(n+1, n+1) table M[j, k] = sum over cells of f**j * g**k, from one
    power table per component and one matrix product.  Entries with
    j + k > n may overflow to inf; read only those a degree <= n needs."""
    js = np.arange(n + 1)[:, None]
    with np.errstate(over="ignore"):
        return f ** js @ (g ** js).T
