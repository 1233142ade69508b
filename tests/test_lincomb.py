from qcf.lincomb import Accumulator, LinComb, linear
from qcf.scalars import Cyc


def test_linear_drops_a_label_that_cancels_and_reappears():
    one = Cyc.one()
    x = linear([("a", one), ("b", one), ("a", -one), ("c", Cyc.zero()), ("a", Cyc.rational(3))])
    assert x == LinComb({"b": one, "a": Cyc.rational(3)})
    assert list(x.labels()) == ["b", "a"]  # "a" was dropped, then added again
    assert linear([("a", one), ("a", -one)]).is_zero()


def test_operations_leave_their_operands_unchanged():
    x = LinComb({"a": Cyc.rational(2), "b": Cyc.root(4, 1)})
    y = LinComb({"a": Cyc.rational(-2), "c": Cyc.one()})
    before_x, before_y = list(x.items()), list(y.items())
    assert x + y == LinComb({"b": Cyc.root(4, 1), "c": Cyc.one()})
    assert x - y == LinComb({"a": Cyc.rational(4), "b": Cyc.root(4, 1), "c": Cyc.rational(-1)})
    assert -x == LinComb({"a": Cyc.rational(-2), "b": Cyc.root(4, 3)})
    assert x.scale(Cyc.rational(3)) == LinComb({"a": Cyc.rational(6), "b": Cyc.root(4, 1) * 3})
    assert x.scale(Cyc.zero()).is_zero()
    assert list(x.items()) == before_x and list(y.items()) == before_y


def test_scale_by_one_shares_the_immutable_value():
    x = LinComb.basis("a", Cyc.rational(2))
    assert x.scale(Cyc.one()) is x


def test_accumulator_result_is_not_changed_by_later_adds():
    acc = Accumulator()
    acc.add("a", Cyc.one())
    first = acc.result()
    acc.add("a", Cyc.rational(-1))
    acc.add("b", Cyc.one())
    assert first == LinComb.basis("a")
    assert acc.result() == LinComb({"a": Cyc.rational(-1), "b": Cyc.one()})


def test_lincomb_public_api_has_no_in_place_methods():
    public = {name for name in vars(LinComb) if not name.startswith("_")}
    assert public == {"terms", "basis", "scale", "items", "labels", "is_zero", "support_size"}
