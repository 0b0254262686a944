"""Unit tests for the simulation's counting resource (CPU pool)."""

import pytest

from repro.sim.core import Simulator
from repro.sim.resources import Resource


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, 2, name="cpu")
    grants = [resource.request() for _ in range(3)]
    assert grants[0].triggered and grants[1].triggered
    assert not grants[2].triggered
    resource.release()
    assert grants[2].triggered
    assert resource.in_use == 2


def test_resource_release_underflow_raises():
    sim = Simulator()
    resource = Resource(sim, 1)
    with pytest.raises(RuntimeError, match="underflow"):
        resource.release()


def test_resource_cancel_pending_request():
    sim = Simulator()
    resource = Resource(sim, 1)
    first = resource.request()
    waiting = resource.request()
    resource.cancel(waiting)
    resource.release()  # must NOT go to the cancelled waiter
    assert resource.available == 1
    del first


def test_resource_cancel_granted_releases():
    sim = Simulator()
    resource = Resource(sim, 1)
    grant = resource.request()
    assert resource.available == 0
    resource.cancel(grant)
    assert resource.available == 1


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, 0)

