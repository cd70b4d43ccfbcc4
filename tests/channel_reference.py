"""Public-form references for the channel draws: a Poisson transmitter field and the ULA steering vector.

``sample_hppp`` makes the count, radii and angles calls that ``outage._draw``
makes, in its order, and returns the sources as an (n, 2) array; followed by
``channel.sample_channels`` on the same generator, it gives the channels whose
reductions the outage tests compare the study's with. It checks no argument:
callers pass a finite density >= 0 and a radius > 0.

``steering_vector`` is the LoS row that ``channel.sample_channels`` builds
for each source; the tests compare pure-LoS channels and the DFT codebook
with it. It checks no argument either: callers pass an antenna count >= 1.
"""

import math

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


def steering_vector(theta, n_antennas):
    """Half-wavelength ULA response for plane waves at angles ``theta`` off broadside.

    Element m carries phase ``pi*sin(theta)*m``; entries have unit modulus and
    element 0 is the phase reference. Returns one row of ``n_antennas``
    entries per angle: shape ``theta.shape + (n_antennas,)``.
    """
    return np.exp(1j * math.pi * np.multiply.outer(np.sin(theta), np.arange(n_antennas)))
