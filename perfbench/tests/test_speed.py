import os
import time

import pytest

from perfbench import speed
from perfbench.speed import SpeedProbe


def _probe(samples):
    probe = SpeedProbe()
    probe.samples = list(samples)
    return probe


def test_speed_is_the_mean_of_the_samples_inside_the_interval():
    probe = _probe([(1.0, 0.5), (2.0, 1.0), (3.0, 0.6), (9.0, 0.1)])
    assert probe.speed(1.5, 3.5) == pytest.approx(0.8)
    # four wall seconds at a mean probe speed of 0.8
    assert probe.scale(1.5, 5.5) == pytest.approx(
        4 * 0.8 ** speed.SENSITIVITY)


def test_an_interval_between_samples_takes_the_nearest_one():
    probe = _probe([(1.0, 0.5), (2.0, 1.0)])
    assert probe.speed(1.8, 1.9) == 1.0
    assert probe.speed(1.1, 1.2) == 0.5


def test_no_samples_means_reference_speed():
    assert _probe([]).scale(2.0, 5.0) == 3.0


def test_the_thread_samples_and_leaves_the_main_thread_unpinned():
    before = os.sched_getaffinity(0)
    with SpeedProbe() as probe:
        time.sleep(5 * speed.EVERY_S)
    assert len(probe.samples) >= 2
    assert all(s > 0 for _, s in probe.samples)
    assert os.sched_getaffinity(0) == before
