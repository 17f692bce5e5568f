import pytest

from olp.fixpoint import FixpointDivergence, kleene, kleene_trace
from olp.syntax import Interpretation
from .conftest import A, B, NA, interp

E = Interpretation.empty()


def _oscillate(x):
    """A non-monotone step that flips between {a} and {b, -a} forever."""
    return interp(B, NA) if A in x else interp(A)


def test_divergence_carries_the_last_two_iterates_and_their_difference():
    with pytest.raises(FixpointDivergence) as caught:
        kleene(_oscillate, E, 4, "forced oscillation")
    error = caught.value
    assert {error.previous, error.last} == {interp(A), interp(B, NA)}
    assert error.difference == frozenset({A, B, NA})
    assert str(error) == (
        "forced oscillation did not converge within 5 applications; "
        "its last two iterates differ on {-a, a, b}"
    )


def test_divergence_on_raw_sets_and_through_kleene_trace():
    with pytest.raises(FixpointDivergence) as caught:
        kleene(lambda x: frozenset({A}) - x, frozenset(), 2)
    assert caught.value.difference == frozenset({A})
    with pytest.raises(FixpointDivergence) as caught:
        kleene_trace(_oscillate, frozenset({A, NA, B}))
    assert "\n" not in str(caught.value)


def test_divergence_on_bitsets_names_the_literals():
    # Bitset iterates (brewka's) are decoded, not iterated.
    a, b = 1 << A.id, 1 << B.id | 1 << NA.id
    with pytest.raises(FixpointDivergence) as caught:
        kleene(lambda x: b if x == a else a, 0, 3, "forced oscillation")
    error = caught.value
    assert {error.previous, error.last} == {a, b}
    assert error.difference == frozenset({A, B, NA})
    assert str(error).endswith("its last two iterates differ on {-a, a, b}")


def test_a_bare_message_still_works():
    error = FixpointDivergence("forced")
    assert str(error) == "forced"
    assert error.previous is None and error.difference == frozenset()
