"""A Poisson transmitter field sampled in public form, the reference for the outage study's draws.

``sample_hppp`` makes the count, radii and angles calls that ``outage._draw``
makes, in its order, and returns the sources as an (n, 2) array; followed by
``channel.sample_channels`` on the same generator, it gives the channels whose
reductions the outage tests compare the study's with. It checks no argument:
callers pass a finite density >= 0 and a radius > 0.
"""

import numpy as np

from wetplan.channel import _mean_sources, _uniform_disk


def sample_hppp(density, radius, seed):
    """Transmitters of a homogeneous PPP over the disk of ``radius`` at the origin, as an (n, 2) array.

    The count is Poisson with mean ``density * pi * radius**2`` and the
    positions are i.i.d. uniform over the disk; identical seeds give
    identical fields.
    """
    rng = np.random.default_rng(seed)
    return _uniform_disk(int(rng.poisson(_mean_sources(density, radius))), radius, rng)
