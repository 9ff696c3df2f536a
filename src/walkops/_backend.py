"""The generic engine's scatter-add kernel.

``np.add.at`` is unbuffered and adds in index order, row-major over
``rows``, so the summation order, and with it every bit of the result, is
fixed.
"""

import numpy as np

BACKEND = "python"


def scatter_add_outer(acc, rows, level_vals, mu_vals):
    """acc[rows[i, j]] += level_vals[i] * mu_vals[j]."""
    weights = level_vals[:, None] * mu_vals[None, :]
    np.add.at(acc, rows.ravel(), weights.ravel())
