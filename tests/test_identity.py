"""A frozen dataclass with an array field compares and hashes by identity.

Field-wise ``==`` would ask an array for its truth value, and hashing would
hash the array; both raise.
"""

import copy

import numpy as np
import pytest

from wetplan.ambient import example_map
from wetplan.beampower import MulticastProblem, PrecoderSolution
from wetplan.deployment import DeploymentProblem, DeploymentSolution

BUILD = {
    "DeploymentProblem": lambda: DeploymentProblem(np.array([[0.0, 0.0]]), example_map(), k=1),
    "DeploymentSolution": lambda: DeploymentSolution(np.array([[0.0, 0.0]]), (1.0,), 1e-3, 0),
    "MulticastProblem": lambda: MulticastProblem([[1 + 1j, 1]], 1.0),
    "PrecoderSolution": lambda: PrecoderSolution(np.array([1 + 0j, 0j]), 1.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(BUILD))
def test_instances_compare_and_hash_by_identity(name):
    x = BUILD[name]()
    assert x == x
    assert x != copy.copy(x)
    assert x != BUILD[name]()
    hash(x)
