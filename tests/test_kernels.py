"""The sparse kernels on the integer coefficients of the formal star path."""

from starweyl import kernels


def test_backend_is_declared():
    assert kernels.BACKEND == "pure"


def test_p_lambda_shift_moves_the_left_slots():
    # one generator plus the h and i slots; d (x) d with weight 3, and the
    # same with the left factor also raised to h*i
    t = {((2, 0, 0), (1, 0, 0)): 5}
    plain = kernels.p_lambda_terms([(0, 0, 3, None)], t)
    assert plain == {((1, 0, 0), (0, 0, 0)): 30}
    shifted = kernels.p_lambda_terms([(0, 0, 3, (-1, 1, 1))], t)
    assert shifted == {((1, 1, 1), (0, 0, 0)): 30}


def test_star_terms_weights_levels_and_cancels():
    # x * x with z folded into one entry: level weights 2 and 1
    a = {(1, 0, 0): 1}
    entries = [(0, 0, 1, (-1, 1, 0))]
    out = kernels.star_terms(entries, [2, 1], a, a, 1)
    assert out == {(2, 0, 0): 2, (0, 1, 0): 1}
    # opposite entries cancel level 1 exactly and the key is dropped
    entries = [(0, 0, 1, None), (0, 0, -1, None)]
    assert kernels.star_terms(entries, [1, 1], a, a, 1) == {(2, 0, 0): 1}
