import pytest

from stretchnet import shapes
from stretchnet.pipeline import stretch_and_unfold
from stretchnet.transform import default_theta_max
from stretchnet.verdict import Status


def test_development_failure_is_a_precondition_verdict():
    # at theta_max = 1e-12 the two placements of a fold edge of the cube
    # disagree: the run ends in a verdict, with no layout or boundary
    run = stretch_and_unfold(shapes.cube(), theta_max=1e-12)
    assert run.layout is None and run.boundary is None
    assert run.verdict.to_json() == {
        "status": "precondition_failure",
        "witnesses": [
            {"seg_a": None, "seg_b": None, "point": None, "note": "fold edge (2, 3) placements disagree by 2.296e-05"}
        ],
        "checks": {"layout_consistency": False},
    }


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
