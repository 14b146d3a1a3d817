import pytest

from stretchnet import shapes
from stretchnet.pipeline import stretch_and_unfold
from stretchnet.transform import default_theta_max
from stretchnet.verdict import Status


@pytest.mark.filterwarnings("ignore::stretchnet.errors.CoplanarFacesWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [600, 1000, 1500])
def test_default_bound_certifies_large_hulls(n, seed):
    # at the default bound lambda grows like N^2 (about 1e7 at 1,500
    # points); the stretched mesh used to be re-validated, and its cone
    # angles, within EPS of 2*pi, raised NotConvex from about 500 points
    P = shapes.random_hull(n, seed)
    run = stretch_and_unfold(P)
    assert run.stretch.theta_max == default_theta_max(P)
    assert run.verdict.status is Status.NET, run.verdict.to_json()
