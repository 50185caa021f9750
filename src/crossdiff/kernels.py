"""Power moments of a pair of cell fields, per component: the reference
for the table that :func:`crossdiff.diagnostics.entropy_trace` forms from
the stacked state, which weighs them into every E_n of degree <= n."""

from __future__ import annotations

import numpy as np


def power_moments(f, g, n):
    """(n+1, n+1) table M[j, k] = sum over cells of f**j * g**k, from one
    power table per component and one matrix product.  Entries with
    j + k > n may overflow to inf; read only those a degree <= n needs."""
    js = np.arange(n + 1)[:, None]
    with np.errstate(over="ignore"):
        return f ** js @ (g ** js).T
