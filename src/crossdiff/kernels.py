"""Homogeneous-polynomial evaluation over cell arrays, the hot loop of the
per-step entropy report (:func:`crossdiff.diagnostics.entropy_trace`)."""

from __future__ import annotations

import numpy as np


def phi_cells(coeffs, x1, x2):
    """sum_j coeffs[j] * x1**j * x2**(n-j) per cell, n = len(coeffs) - 1."""
    n = coeffs.shape[0] - 1
    js = np.arange(n + 1)
    return (coeffs * x1[:, None] ** js * x2[:, None] ** (n - js)).sum(axis=1)
