"""One multicast precoder problem through the sweep's own pipeline: reduce, relax, extract."""

import numpy as np

from wetplan import beampower


def min_power_precoder(channels, gamma, tol=1e-4, seed=0):
    """(precoder, tx_power, certified lower bound) for |h_i^H w|^2 >= gamma at every channel row.

    The bound is the relaxation's dual value in watts, capped at ``tx_power``:
    where the relaxation is tight it can round a few ulps above the power.
    """
    red = beampower._reduce(np.atleast_2d(np.asarray(channels, dtype=complex)), gamma)
    (relaxed,) = beampower._solve_relaxations([red], tol)
    precoder, tx_power = beampower._extract(red, relaxed, tol, seed, None)
    return precoder, tx_power, min(red.cstar * relaxed[2], tx_power)
