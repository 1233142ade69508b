from qcf.lincomb import LinComb
from qcf.scalars import Cyc


def test_scale_by_one_returns_a_copy():
    x = LinComb.basis("a", Cyc.rational(2))
    y = x.scale(Cyc.one())
    assert y == x
    y.add_term("b", Cyc.one())
    y.add_term("a", Cyc.rational(-2))
    assert x == LinComb.basis("a", Cyc.rational(2))
