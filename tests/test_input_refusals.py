"""Input refusals of public functions: each raises ValueError with its own
message before it does any work on the input."""

import pytest

from credalfans import pri
from credalfans.chains2mono import LowerProbability, choquet
from credalfans.credal import Assessment, Gamble, LowerPrevision, OutcomeSpace

SP2 = OutcomeSpace(["a", "b"])
SP3 = OutcomeSpace(["a", "b", "c"])
VACUOUS = pri.PRIModel(SP3, (0, 0, 0), (1, 1, 1))
LENGTH = "gamble length does not match the outcome space"

REFUSALS = {
    "event_outside_the_space": (
        lambda: LowerProbability(SP3, [(frozenset({3}), 0)]),
        "event outside the outcome space"),
    "choquet_gamble_length": (
        lambda: choquet(pri.induced_2mono(VACUOUS), (1, 2)), LENGTH),
    "indicator_member_out_of_range": (
        lambda: Gamble.indicator(SP3, [3]), "indicator members out of range"),
    "assessment_on_another_space": (
        lambda: LowerPrevision(SP3, [Assessment(Gamble.indicator(SP2, ["a"]), 0)]),
        "assessment on a different outcome space"),
    "bound_vector_length": (
        lambda: pri.PRIModel(SP3, (0, 0), (1, 1, 1)),
        "bound vectors must match the outcome space"),
    "pri_neighbors_on_a_cone_not_full": (  # outcome 0 splits {} | {1, 2}
        lambda: pri.pri_neighbors(VACUOUS._ints, (0, 0, 0b110, 0)),
        "neighbour rules apply to full cones with both sides nonempty"),
    "natural_extension_pri_gamble_length": (
        lambda: pri.natural_extension_pri(VACUOUS, (1, 2)), LENGTH),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_raises_value_error_with_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
