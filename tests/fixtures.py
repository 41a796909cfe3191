"""Test fixtures shared by several test modules."""

import numpy as np

from calibens.combiners import HeadOutputs


def head_outputs(per_head, rows_are_probs=True):
    """HeadOutputs from a list of m equally shaped (N, C) matrices, head i's
    matrix becoming the view [:, i, :] of the (N, m, C) array."""
    return HeadOutputs(np.stack(per_head, axis=1), rows_are_probs=rows_are_probs)
