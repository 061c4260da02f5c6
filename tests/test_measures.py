import numpy as np
import pytest

from bestreply.engine import TrajectorySet, time_averaged_moments
from bestreply.kernels import weak_star_distance_from_moments


def resting_particle(x0, n_steps=1):
    """One unit-weight particle held at ``x0`` with zero control, never exiting."""
    return TrajectorySet(
        x=np.full((1, n_steps + 1), x0),
        alpha=np.zeros((1, n_steps)),
        exit_step=np.array([n_steps + 1]),
        weight=1.0,
        dt=0.1,
    )


def test_measure_plugs_into_weak_star_distance():
    # the trajectory's time-averaged joint measure is one atom at (x0, 0);
    # moments 1, x, alpha give I = (0, -0.1, 0), so d = (1/4)*0.1/1.1 = 1/44
    m1, m2 = (time_averaged_moments(resting_particle(x0, n_steps=3), 3) for x0 in (0.5, 0.6))
    assert weak_star_distance_from_moments(m1, m2) == pytest.approx(1.0 / 44.0, rel=1e-12)
