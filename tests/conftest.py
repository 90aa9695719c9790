import pytest
from hypothesis import settings

from ihg.coefficients import Coefficient
from ihg.exterior import Form
from ihg.geometry import Geometry
from ihg.symbols import registry

# The time of an exact-arithmetic example varies widely (the first one fills
# caches), so no property test has a deadline; each sets only its example
# count.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


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


@pytest.fixture
def twisted() -> Geometry:
    """d phi^2 = E1 phi^{1 1bar}: a character in the structure equations,
    so d phi^2 carries E1 and d phi^{2bar} its conjugate."""
    registry.ensure_char("E1")
    return Geometry(
        "twisted", 2, {2: Form.monomial((1,), (1,), Coefficient.symbol("E1"))},
        chars={"E1": Form.monomial((1,), ()) - Form.monomial((), (1,))},
    )
