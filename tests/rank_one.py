"""The rank-one projection of single-antenna channels, for the tests that
check the scalar kernels against the joint kernel on full-noise draws."""

import numpy as np

from fadecap import mc


def rank_one(h, noise):
    """The rank-one coordinates of channel columns h (C, n_r) under noise
    (C, N, n_r), CN(0, I): the gain ||h|| (C,) of `mc._gain` and the
    projection u = h^H n / ||h|| (C, N), CN(0, 1).  The points sqrt(snr)
    h x span one complex direction, so projecting the noise onto it loses
    nothing.  A zero channel gives u = 0."""
    gain = mc._gain(h)
    u = (noise @ h.conj()[:, :, None])[:, :, 0] / np.where(gain > 0.0, gain, 1.0)[:, None]
    return gain, u
