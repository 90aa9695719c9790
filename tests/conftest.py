import pytest

from ihg.exterior import Form
from ihg.geometry import Geometry
from ihg.symbols import registry


@pytest.fixture(autouse=True)
def fresh_registry():
    registry.reset()
    yield
    registry.reset()


@pytest.fixture
def h3x() -> Geometry:
    """d phi^3 = d phi^4 = phi^{12}: dbar maps phi^{3bar} and phi^{4bar}
    to the same (0,2)-form, so a dbar-primitive is not unique and the
    minimum-norm one, (phi^{3bar} + phi^{4bar})/2 for phi^{12bar}, differs
    from the one a pivot choice picks."""
    return Geometry(
        "h3x",
        4,
        {3: Form.monomial((1, 2), ()), 4: Form.monomial((1, 2), ())},
        generators=(Form.monomial((), (1,)), Form.monomial((), (2,))),
    )
