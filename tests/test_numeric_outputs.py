"""Numeric operation outputs, frozen, and their accuracy.

repr() of the .terms of numeric operation outputs (key order and float
bits) and of the numeric diagnostics. Any change to the order or rounding
of a numeric sum or product shows here. An output whose repr runs to many
kilobytes is frozen as the sha256 of that repr. The numeric operations run
the loops of the formal domain on complex values, so their bits are those
of that order; the frozen products, brackets, exponentials, ordering
operators, operator compositions, adjoints and applications, translation
and continuity sums are also checked against
the formal engine on the exact rationals of their float inputs, and the
translation defect against the scale of its product.
"""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from starweyl import (
    BilinearForm, DifferentialOperator, GaussianRational, Polynomial,
    SeminormSpec, formal_adjoint,
    minus_i_hbar, n_operator, ordering_operator, poisson_bracket,
    poisson_standard, seminorm_pR, standard_form, star, star_continuity_report,
    star_standard, star_weyl, std_rep, translation_automorphism_defect,
    truncated_exponential, weyl_rep,
)

G = ("q", "p")
A = Polynomial(G, {(2, 1): complex(0.3, 1.7), (1, 0): -2.5, (0, 1): 1j,
                   (0, 0): 1 / 3, (1, 3): complex(-0.1, 0.7)}, "numeric")
B = Polynomial(G, {(1, 1): complex(1.1, -0.2), (0, 2): 0.7, (3, 0): -1j / 7,
                   (0, 0): complex(2, 1)}, "numeric")
FORM = BilinearForm(G, [[0.25, complex(1, 0.5)], [-0.75, 1j / 3]], "numeric")
Z = complex(0.2, -1.3)


def outputs():
    yield "A", A
    yield "B", B
    yield "A+B", A + B
    yield "A-B", A - B
    yield "-A", -A
    yield "A.scale", A.scale(complex(0.6, -1.1))
    yield "A*B", A * B
    yield "A**3", A ** 3
    yield "dA/dq", A.partial_derivative(0)
    yield "dA/dp", A.partial_derivative(1)
    yield "A.translate", A.translate((complex(0.5, 0.25), -1.5))
    yield "star", star(FORM, Z, A, B)
    yield "star_std", star_standard(A, B)
    yield "star_weyl", star_weyl(B, A)
    yield "poisson", poisson_bracket(FORM, A, B)
    yield "poisson_std", poisson_standard(A, B)
    yield "std_rep", std_rep(A * B)
    yield "weyl_rep", weyl_rep(A)
    yield "adjoint", formal_adjoint(std_rep(A))
    op = std_rep(B)
    yield "compose", op.compose(std_rep(A))
    qa = Polynomial(("q",), {(3,): complex(0.3, 0.9), (1,): -2.0}, "numeric")
    yield "apply", weyl_rep(A).apply(qa)
    yield "n_operator", n_operator(G, "numeric").apply(A * B)
    yield "exp", truncated_exponential(G, [0.5, complex(0.25, -1)], Z, 7,
                                        "numeric").base
    yield "exp10", truncated_exponential(
        ("q1", "q2", "p1", "p2"), [0.5, complex(0.25, -1), -0.75, 1j / 3],
        complex(0.3, 0.4), 10, "numeric").base
    sym = BilinearForm(G, [[0.5, complex(0.25, 1)], [complex(0.25, 1), -1.5]],
                       "numeric")
    yield "ordering", ordering_operator(sym, Z).apply(A * B)
    spec = SeminormSpec([0.7, 1.3], 0.5)
    yield "seminorm", seminorm_pR(spec, A * B)
    yield "continuity", star_continuity_report(
        spec, standard_form(G, "numeric"), minus_i_hbar("numeric"),
        [0.5, 0.25], [0.125, -0.5], kmax=8).partial_sums
    yield "translation_defect", translation_automorphism_defect(
        FORM, Z, A, B, (0.5, -0.25)).defect_max


FROZEN = {
    'A': '{(2, 1): NumericScalar((0.3+1.7j)), (1, 0): NumericScalar((-2.5+0j)), (0, 1): NumericScalar(1j), (0, 0): NumericScalar((0.3333333333333333+0j)), (1, 3): NumericScalar((-0.1+0.7j))}',
    'B': '{(1, 1): NumericScalar((1.1-0.2j)), (0, 2): NumericScalar((0.7+0j)), (3, 0): NumericScalar(-0.14285714285714285j), (0, 0): NumericScalar((2+1j))}',
    'A+B': '{(2, 1): NumericScalar((0.3+1.7j)), (1, 0): NumericScalar((-2.5+0j)), (0, 1): NumericScalar(1j), (0, 0): NumericScalar((2.3333333333333335+1j)), (1, 3): NumericScalar((-0.1+0.7j)), (1, 1): NumericScalar((1.1-0.2j)), (0, 2): NumericScalar((0.7+0j)), (3, 0): NumericScalar(-0.14285714285714285j)}',
    'A-B': '{(2, 1): NumericScalar((0.3+1.7j)), (1, 0): NumericScalar((-2.5+0j)), (0, 1): NumericScalar(1j), (0, 0): NumericScalar((-1.6666666666666667-1j)), (1, 3): NumericScalar((-0.1+0.7j)), (1, 1): NumericScalar((-1.1+0.2j)), (0, 2): NumericScalar((-0.7+0j)), (3, 0): NumericScalar(0.14285714285714285j)}',
    '-A': '{(2, 1): NumericScalar((-0.3-1.7j)), (1, 0): NumericScalar((2.5+0j)), (0, 1): NumericScalar(-1j), (0, 0): NumericScalar((-0.3333333333333333+0j)), (1, 3): NumericScalar((0.1-0.7j))}',
    'A.scale': '{(2, 1): NumericScalar((2.0500000000000003+0.69j)), (1, 0): NumericScalar((-1.5+2.75j)), (0, 1): NumericScalar((1.1+0.6j)), (0, 0): NumericScalar((0.19999999999999998-0.3666666666666667j)), (1, 3): NumericScalar((0.71+0.53j))}',
    'A*B': '{(3, 2): NumericScalar((0.67+1.81j)), (2, 3): NumericScalar((0.21+1.19j)), (5, 1): NumericScalar((0.24285714285714283-0.04285714285714285j)), (2, 1): NumericScalar((-3.85+4.199999999999999j)), (1, 2): NumericScalar((-1.55+1.1j)), (4, 0): NumericScalar(0.3571428571428571j), (1, 0): NumericScalar((-5-2.5j)), (0, 3): NumericScalar(0.7j), (3, 1): NumericScalar((0.14285714285714285+0j)), (0, 1): NumericScalar((-1+2j)), (1, 1): NumericScalar((0.3666666666666667-0.06666666666666667j)), (0, 2): NumericScalar((0.2333333333333333+0j)), (3, 0): NumericScalar(-0.047619047619047616j), (0, 0): NumericScalar((0.6666666666666666+0.3333333333333333j)), (2, 4): NumericScalar((0.02999999999999997+0.79j)), (1, 5): NumericScalar((-0.06999999999999999+0.48999999999999994j)), (4, 3): NumericScalar((0.09999999999999999+0.014285714285714285j)), (1, 3): NumericScalar((-0.8999999999999999+1.2999999999999998j))}',
    'A**3': '{(6, 3): NumericScalar((-2.574-4.454j)), (5, 2): NumericScalar((21-7.6499999999999995j)), (4, 3): NumericScalar((-3.06-8.399999999999999j)), (4, 2): NumericScalar((-2.8+1.02j)), (5, 5): NumericScalar((-1.3019999999999998-6.186j)), (4, 1): NumericScalar((5.625+31.875j)), (3, 2): NumericScalar((25.5-4.5j)), (3, 1): NumericScalar((-1.5-8.5j)), (4, 4): NumericScalar((18.299999999999997-0.5999999999999996j)), (2, 3): NumericScalar((-0.4-8.599999999999998j)), (2, 2): NumericScalar((-3.4+0.6j)), (3, 5): NumericScalar((-0.23999999999999988-7.32j)), (2, 1): NumericScalar((0.09999999999999998+19.316666666666666j)), (3, 4): NumericScalar((-2.4399999999999995+0.07999999999999996j)), (4, 7): NumericScalar((0.28200000000000003-2.574j)), (3, 0): NumericScalar((-15.625+0j)), (2, 0): NumericScalar((6.249999999999999+0j)), (3, 3): NumericScalar((-1.875+13.125j)), (1, 2): NumericScalar((7.5+0j)), (1, 1): NumericScalar(-5j), (2, 4): NumericScalar((10.5+1.5j)), (1, 0): NumericScalar((-0.8333333333333333+0j)), (3, 6): NumericScalar((3.5999999999999996+1.0499999999999998j)), (0, 3): NumericScalar(-1j), (0, 2): NumericScalar((-1+0j)), (1, 5): NumericScalar((0.30000000000000004-2.0999999999999996j)), (0, 1): NumericScalar(0.3333333333333333j), (1, 4): NumericScalar((-1.4-0.2j)), (2, 7): NumericScalar((0.41999999999999993-1.4399999999999997j)), (0, 0): NumericScalar((0.037037037037037035+0j)), (1, 3): NumericScalar((-0.03333333333333333+0.23333333333333328j)), (2, 6): NumericScalar((-0.4799999999999999-0.13999999999999999j)), (3, 9): NumericScalar((0.146-0.3219999999999999j))}',
    'dA/dq': '{(1, 1): NumericScalar((0.6+3.4j)), (0, 0): NumericScalar((-2.5+0j)), (0, 3): NumericScalar((-0.1+0.7j))}',
    'dA/dp': '{(2, 0): NumericScalar((0.3+1.7j)), (0, 0): NumericScalar(1j), (1, 2): NumericScalar((-0.30000000000000004+2.0999999999999996j))}',
    'A.translate': '{(0, 0): NumericScalar((0.39583333333333326-3.8125j)), (0, 1): NumericScalar((-1.8874999999999997+3.5874999999999995j)), (1, 0): NumericScalar((-1.3375-5.137499999999999j)), (1, 1): NumericScalar((-1.225+6.574999999999999j)), (2, 0): NumericScalar((-0.44999999999999996-2.55j)), (2, 1): NumericScalar((0.3+1.7j)), (0, 2): NumericScalar((1.0125-1.4625j)), (0, 3): NumericScalar((-0.22499999999999998+0.32499999999999996j)), (1, 2): NumericScalar((0.45-3.15j)), (1, 3): NumericScalar((-0.1+0.7j))}',
    'star': '{(3, 2): NumericScalar((0.4096428571428572+2.6682142857142854j)), (2, 1): NumericScalar((-1.8043273809523803+6.344922619047618j)), (1, 2): NumericScalar((6.651303571428571+4.13855357142857j)), (1, 1): NumericScalar((-2.017475-0.11472261904761921j)), (2, 4): NumericScalar((0.02999999999999997+0.79j)), (2, 3): NumericScalar((0.23892857142857143+1.094642857142857j)), (0, 3): NumericScalar(0.7j), (0, 2): NumericScalar((-0.5599041666666669+4.1645375j)), (1, 5): NumericScalar((-0.06999999999999999+0.48999999999999994j)), (5, 1): NumericScalar((0.24285714285714283-0.04285714285714285j)), (4, 0): NumericScalar((0.016071428571428556+1.086785714285714j)), (3, 1): NumericScalar((0.13214285714285712-0.48642857142857143j)), (3, 0): NumericScalar((0.16966666666666666+0.7813809523809525j)), (4, 3): NumericScalar((0.09999999999999999+0.014285714285714285j)), (1, 0): NumericScalar((-5.512560565476191+8.077807886904765j)), (0, 1): NumericScalar((-0.16885610119047623+3.962692113095237j)), (0, 0): NumericScalar((0.7107787202380952+0.18179985119047615j)), (1, 3): NumericScalar((-2.6287499999999997+2.9137499999999994j)), (0, 4): NumericScalar((1.31525+1.0307499999999998j)), (2, 2): NumericScalar((-0.11900000000000008+1.033j)), (2, 0): NumericScalar((1.2356785714285714+0.5964642857142857j))}',
    'star_std': '{(3, 2): NumericScalar((0.7985714285714286+0.9100000000000003j)), (2, 1): NumericScalar((-3.84+3.2728571428571422j)), (1, 2): NumericScalar((-1.55+1.1j)), (1, 1): NumericScalar((0.3666666666666667-0.06666666666666667j)), (2, 4): NumericScalar((0.02999999999999997+0.79j)), (2, 3): NumericScalar((0.21+1.19j)), (0, 3): NumericScalar(0.7j), (0, 2): NumericScalar((0.2333333333333333+0j)), (1, 5): NumericScalar((-0.06999999999999999+0.48999999999999994j)), (5, 1): NumericScalar((0.24285714285714283-0.04285714285714285j)), (4, 0): NumericScalar((-0.12857142857142856-0.37142857142857144j)), (3, 1): NumericScalar((0.14285714285714285+0j)), (3, 0): NumericScalar(-0.047619047619047616j), (4, 3): NumericScalar((0.09999999999999999+0.014285714285714285j)), (1, 0): NumericScalar((-5.085714285714285-1.9000000000000001j)), (0, 1): NumericScalar((0.10000000000000009+1.8j)), (0, 0): NumericScalar((0.6666666666666666+0.3333333333333333j)), (1, 3): NumericScalar((1.4699999999999998+1.21j)), (2, 0): NumericScalar(-0.42857142857142855j)}',
    'star_weyl': '{(3, 2): NumericScalar((0.6057142857142858+2.26j)), (2, 3): NumericScalar((0.21+1.19j)), (5, 1): NumericScalar((0.24285714285714283-0.04285714285714285j)), (2, 1): NumericScalar((-3.3949999999999996+3.800714285714285j)), (1, 2): NumericScalar((0.8299999999999998+0.6800000000000002j)), (4, 0): NumericScalar((0.06428571428571428+0.7214285714285713j)), (1, 0): NumericScalar((-4.404285714285714-0.29499999999999993j)), (0, 3): NumericScalar(0.7j), (3, 1): NumericScalar((0.14285714285714285+0j)), (0, 1): NumericScalar((-1.655+3.255j)), (1, 1): NumericScalar((0.3666666666666667-0.06666666666666667j)), (0, 2): NumericScalar((0.25583333333333325+0.5924999999999999j)), (3, 0): NumericScalar(-0.047619047619047616j), (0, 0): NumericScalar((0.6666666666666666+0.3333333333333333j)), (2, 4): NumericScalar((0.02999999999999997+0.79j)), (1, 5): NumericScalar((-0.06999999999999999+0.48999999999999994j)), (4, 3): NumericScalar((0.09999999999999999+0.014285714285714285j)), (1, 3): NumericScalar((-1.69+1.3299999999999998j)), (2, 0): NumericScalar(0.21428571428571427j), (0, 4): NumericScalar((0.48999999999999994+0.06999999999999999j))}',
    'poisson': '{(2, 1): NumericScalar((0.2675+3.5025000000000004j)), (1, 0): NumericScalar((-5.062500000000001-0.5j)), (1, 3): NumericScalar((0.685-2.795000000000001j)), (0, 1): NumericScalar((-5.924999999999999-3.7750000000000004j)), (1, 2): NumericScalar((-0.9100000000000001+8.749999999999998j)), (0, 4): NumericScalar((-0.7349999999999999+1.6449999999999996j)), (4, 0): NumericScalar((-1.3392857142857142-0.1392857142857143j)), (2, 0): NumericScalar((-0.75-0.21428571428571427j)), (3, 2): NumericScalar((-1.5107142857142855-0.6749999999999999j))}',
    'poisson_std': '{(2, 1): NumericScalar((0.67+1.81j)), (1, 0): NumericScalar((-2.75+0.5j)), (1, 3): NumericScalar((-0.05999999999999989-1.5799999999999996j)), (0, 1): NumericScalar((-3.7-1.1j)), (1, 2): NumericScalar((0.84+4.76j)), (0, 4): NumericScalar((-0.13999999999999999+0.9799999999999999j)), (4, 0): NumericScalar((-0.7285714285714285+0.12857142857142856j)), (2, 0): NumericScalar((-0.42857142857142855+0j)), (3, 2): NumericScalar((-0.8999999999999998-0.1285714285714286j))}',
    'std_rep': '{((3,), (2,)): NumericScalar((-0.67-1.81j)), ((2,), (3,)): NumericScalar((-1.19+0.21j)), ((5,), (1,)): NumericScalar((-0.04285714285714285-0.24285714285714283j)), ((2,), (1,)): NumericScalar((4.199999999999999+3.85j)), ((1,), (2,)): NumericScalar((1.55-1.1j)), ((4,), (0,)): NumericScalar(0.3571428571428571j), ((1,), (0,)): NumericScalar((-5-2.5j)), ((0,), (3,)): NumericScalar((-0.7+0j)), ((3,), (1,)): NumericScalar(-0.14285714285714285j), ((0,), (1,)): NumericScalar((2+1j)), ((1,), (1,)): NumericScalar((-0.06666666666666667-0.3666666666666667j)), ((0,), (2,)): NumericScalar((-0.2333333333333333+0j)), ((3,), (0,)): NumericScalar(-0.047619047619047616j), ((0,), (0,)): NumericScalar((0.6666666666666666+0.3333333333333333j)), ((2,), (4,)): NumericScalar((0.02999999999999997+0.79j)), ((1,), (5,)): NumericScalar((0.48999999999999994+0.06999999999999999j)), ((4,), (3,)): NumericScalar((-0.014285714285714285+0.09999999999999999j)), ((1,), (3,)): NumericScalar((-1.2999999999999998-0.8999999999999999j))}',
    'weyl_rep': '{((2,), (1,)): NumericScalar((1.7-0.3j)), ((1,), (0,)): NumericScalar((-0.8-0.3j)), ((0,), (1,)): NumericScalar((1+0j)), ((0,), (0,)): NumericScalar((0.3333333333333333+0j)), ((1,), (3,)): NumericScalar((-0.7-0.1j)), ((0,), (2,)): NumericScalar((-1.0499999999999998-0.15000000000000002j))}',
    'adjoint': '{((2,), (1,)): NumericScalar((-1.7-0.3j)), ((1,), (0,)): NumericScalar((-5.9-0.6j)), ((0,), (1,)): NumericScalar((-1+0j)), ((0,), (0,)): NumericScalar((0.3333333333333333+0j)), ((1,), (3,)): NumericScalar((0.7-0.1j)), ((0,), (2,)): NumericScalar((2.0999999999999996-0.30000000000000004j))}',
    'compose': '{((3,), (2,)): NumericScalar((-0.67-1.81j)), ((2,), (3,)): NumericScalar((-1.19+0.21j)), ((5,), (1,)): NumericScalar((-0.04285714285714285-0.24285714285714283j)), ((2,), (1,)): NumericScalar((2.8599999999999994+0.22999999999999998j)), ((1,), (2,)): NumericScalar((-3.21-0.2600000000000001j)), ((4,), (0,)): NumericScalar(0.3571428571428571j), ((1,), (0,)): NumericScalar((-4.5+0.25j)), ((0,), (3,)): NumericScalar((-0.7+0j)), ((3,), (1,)): NumericScalar(-0.14285714285714285j), ((0,), (1,)): NumericScalar((3.12+1.42j)), ((1,), (1,)): NumericScalar((-0.06666666666666667-0.3666666666666667j)), ((0,), (2,)): NumericScalar((-0.2333333333333333+0j)), ((3,), (0,)): NumericScalar(-0.047619047619047616j), ((0,), (0,)): NumericScalar((0.6666666666666666+0.3333333333333333j)), ((2,), (4,)): NumericScalar((0.02999999999999997+0.79j)), ((1,), (5,)): NumericScalar((0.48999999999999994+0.06999999999999999j)), ((4,), (3,)): NumericScalar((-0.014285714285714285+0.09999999999999999j)), ((1,), (3,)): NumericScalar((-1.2699999999999998-0.10999999999999988j)), ((0,), (4,)): NumericScalar((0.9799999999999999+0.13999999999999999j))}',
    'apply': '{(4,): NumericScalar((2.37+3.5100000000000002j)), (2,): NumericScalar((-0.8999999999999999+3.9000000000000004j)), (0,): NumericScalar((-2+0j)), (3,): NumericScalar((0.09999999999999999+0.3j)), (1,): NumericScalar((-2.466666666666666-9.899999999999999j))}',
    'n_operator': '{(3, 2): NumericScalar((0.7557142857142858+1.21j)), (2, 3): NumericScalar((0.21+1.19j)), (5, 1): NumericScalar((0.24285714285714283-0.04285714285714285j)), (2, 1): NumericScalar((0.6799999999999997+2.0614285714285705j)), (1, 2): NumericScalar((2.0199999999999996+0.4700000000000001j)), (4, 0): NumericScalar((-0.10714285714285712-0.25j)), (1, 0): NumericScalar((-1.8478571428571438-1.0649999999999997j)), (0, 3): NumericScalar(0.7j), (3, 1): NumericScalar((0.14285714285714285+0j)), (0, 1): NumericScalar((-0.2149999999999999+1.765j)), (1, 1): NumericScalar((0.3666666666666667-0.06666666666666667j)), (0, 2): NumericScalar((2.0933333333333333-1.0200000000000002j)), (3, 0): NumericScalar(-0.047619047619047616j), (0, 0): NumericScalar((0.6333333333333333+0.14999999999999997j)), (2, 4): NumericScalar((0.02999999999999997+0.79j)), (1, 5): NumericScalar((-0.06999999999999999+0.48999999999999994j)), (4, 3): NumericScalar((0.09999999999999999+0.014285714285714285j)), (1, 3): NumericScalar((2.2600000000000002+1.18j)), (2, 0): NumericScalar(-0.21428571428571427j), (0, 4): NumericScalar((1.2249999999999999+0.175j))}',
    'exp': '{(0, 0): NumericScalar((1+0j)), (1, 0): NumericScalar((0.1-0.65j)), (0, 1): NumericScalar((-1.25-0.525j)), (2, 0): NumericScalar((-0.20625000000000002-0.065j)), (1, 1): NumericScalar((-0.46625000000000005+0.76j)), (0, 2): NumericScalar((0.6434375+0.65625j)), (3, 0): NumericScalar((-0.02095833333333334+0.04252083333333334j)), (2, 1): NumericScalar((0.2236875+0.18953125000000004j)), (1, 2): NumericScalar((0.49090625000000004-0.35260937499999995j)), (0, 3): NumericScalar((-0.15325520833333334-0.38603906250000003j)), (4, 0): NumericScalar((0.006385677083333334+0.004468750000000001j)), (3, 1): NumericScalar((0.04852135416666668-0.04214791666666667j)), (2, 2): NumericScalar((-0.09005273437499998-0.17717500000000003j)), (1, 3): NumericScalar((-0.26625091145833335+0.06101197916666665j)), (0, 4): NumericScalar((-0.0027753743489583316+0.14075195312500002j)), (5, 0): NumericScalar((0.0007086510416666669-0.0007407630208333335j)), (4, 1): NumericScalar((-0.005636002604166666-0.008938417968750003j)), (3, 2): NumericScalar((-0.04138967447916668+0.013605592447916662j)), (2, 3): NumericScalar((0.006516347656249992+0.08958214518229168j)), (1, 4): NumericScalar((0.09121123209635416+0.015879188639322923j)), (0, 5): NumericScalar((0.015472798665364584-0.03489657397460938j)), (6, 0): NumericScalar((-6.843847656250002e-05-8.911657986111115e-05j)), (5, 1): NumericScalar((-0.0012747143880208337+0.0005539119791666665j)), (4, 2): NumericScalar((0.0011761669108072907+0.007065961914062502j)), (3, 3): NumericScalar((0.019626676378038197+0.001574196180555559j)), (2, 4): NumericScalar((0.00972129791259766-0.028849690999348962j)), (1, 5): NumericScalar((-0.021135493216959636-0.01354697652994792j)), (0, 6): NumericScalar((-0.006276949944729275+0.00591624969482422j)), (7, 0): NumericScalar((-9.252803509424605e-06+5.081907397073414e-06j)), (6, 1): NumericScalar((3.876189127604164e-05+0.00014732592502170142j)), (5, 2): NumericScalar((0.0009420983870442711-1.1582460123697744e-05j)), (4, 3): NumericScalar((0.0007464737887912333-0.0031499800069173184j)), (3, 4): NumericScalar((-0.00592672311943902-0.0030679375810411256j)), (2, 5): NumericScalar((-0.0054595420330810565+0.006191686469014487j)), (1, 6): NumericScalar((0.003217867307162815+0.004671642433556451j)), (0, 7): NumericScalar((0.0015646026458134728-0.0005857019139353436j))}',
    'exp10': 'sha256:e7455165db551a7ce52075735baa077c12214d18c0c188058b0e35c439c03714',
    'ordering': '{(3, 2): NumericScalar((2.3114285714285714+1.8914285714285715j)), (2, 3): NumericScalar((0.32571428571428573+0.8085714285714285j)), (5, 1): NumericScalar((0.24285714285714283-0.04285714285714285j)), (2, 1): NumericScalar((4.5895357142857165+19.250464285714283j)), (1, 2): NumericScalar((5.4252142857142855+6.6416428571428545j)), (4, 0): NumericScalar((1.6125-0.08392857142857146j)), (1, 0): NumericScalar((-12.101060714285715+35.8271j)), (0, 3): NumericScalar((0.6763214285714285+0.6258214285714284j)), (3, 1): NumericScalar((0.10714285714285718-1.6214285714285714j)), (0, 1): NumericScalar((8.2152375+16.78551964285714j)), (1, 1): NumericScalar((-46.21340119047621-34.18190595238095j)), (0, 2): NumericScalar((-39.610416666666666+20.568750000000005j)), (3, 0): NumericScalar((-4.381714285714287+3.8922380952380955j)), (0, 0): NumericScalar((-37.148592470238114-44.90327383928571j)), (2, 4): NumericScalar((0.02999999999999997+0.79j)), (1, 5): NumericScalar((-0.06999999999999999+0.48999999999999994j)), (4, 3): NumericScalar((0.09999999999999999+0.014285714285714285j)), (1, 3): NumericScalar((-9.130999999999998+6.967000000000002j)), (2, 0): NumericScalar((3.6575250000000015-15.296603571428575j)), (0, 4): NumericScalar((0.35025000000000006+3.4107499999999997j)), (2, 2): NumericScalar((-9.297000000000002-1.0710000000000006j)), (4, 1): NumericScalar((-0.1735714285714286+0.5721428571428572j))}',
    'seminorm': '135.3937916183453',
    'continuity': '[1.0, 2.386567954757769, 2.6345039009678373, 2.5495901755677064, 2.50549208951384, 2.473936259606107, 2.4624923762871735, 2.4587326623628885, 2.4577076323690568]',
    'translation_defect': "'3.1401849173675502e-15'",
}


def test_numeric_outputs_are_frozen():
    got = {}
    for name, out in outputs():
        got[name] = repr(out.terms if hasattr(out, "terms") else out)
    assert list(got) == list(FROZEN)
    for name, want in FROZEN.items():
        if want.startswith("sha256:"):
            got[name] = "sha256:" + hashlib.sha256(
                got[name].encode()).hexdigest()
        assert got[name] == want, name


def test_std_rep_folds_the_power_of_minus_i_exactly():
    # (-i)^101 = -i; a complex power of -1j above the 100th is computed
    # through polar form and reads (4.408109496293883e-15-1j)
    f = Polynomial(G, {(0, 101): 1, (1, 102): complex(0.5, 2)}, "numeric")
    assert repr(std_rep(f).terms) == (
        "{((0,), (101,)): NumericScalar(-1j), "
        "((1,), (102,)): NumericScalar((-0.5-2j))}")


# -- accuracy against exact arithmetic ------------------------------------------


def exact(x):
    """The Gaussian rational a complex double stands for."""
    x = complex(x)
    return GaussianRational(Fraction(x.real), Fraction(x.imag))


def formal_poly(p):
    return Polynomial(p.gens, {e: exact(c.val) for e, c in p.terms.items()},
                      "formal", 0)


def formal_op(op):
    return DifferentialOperator(op.gens, {k: exact(c.val)
                                          for k, c in op.terms.items()},
                                "formal", 0)


def formal_form(form):
    return BilinearForm(form.gens, [[exact(c.val) for c in row]
                                    for row in form.matrix], "formal", 0)


def relative_error(num, ref):
    """The largest |c - c_exact| / |c_exact| over the terms of a numeric
    result and of its exact (h-free formal) counterpart; both must have the
    same terms. Computed exactly, then rounded once."""
    got = {e: exact(c.val) for e, c in num.terms.items()}
    want = {e: c.coefficient(0) for e, c in ref.terms.items()}
    assert list(sorted(got)) == list(sorted(want))
    worst = Fraction(0)
    for e, w in want.items():
        d = got[e] - w
        worst = max(worst, (d.re ** 2 + d.im ** 2) / (w.re ** 2 + w.im ** 2))
    return math.sqrt(worst)


def exact_seminorm(spec, p):
    """p_R of an h-free formal polynomial to 50 digits, the weights the
    exact rationals of the spec's floats."""
    with localcontext() as ctx:
        ctx.prec = 50
        w = [Decimal(x) for x in spec.weights]
        total = Decimal(0)
        for e, c in p.terms.items():
            g = c.coefficient(0)
            m2 = g.re ** 2 + g.im ** 2
            mag = (Decimal(m2.numerator) / Decimal(m2.denominator)).sqrt()
            for wi, k in zip(w, e):
                mag *= wi ** k
            total += (Decimal(math.factorial(sum(e))) ** Decimal(spec.R)) * mag
        return total


ACCURACY = 1e-14


def test_numeric_outputs_are_near_the_exact_values():
    ab = A * B
    z = exact(Z)
    minus_i = GaussianRational(0, -1)
    fa, fb = formal_poly(A), formal_poly(B)
    std = formal_form(standard_form(G, "numeric"))
    weyl = std.antisymmetric_part()
    pairs = {
        "star": (star(FORM, Z, A, B), star(formal_form(FORM), z, fa, fb)),
        "star_std": (star_standard(A, B), star(std, minus_i, fa, fb)),
        "star_weyl": (star_weyl(B, A), star(weyl, minus_i, fb, fa)),
        "poisson": (poisson_bracket(FORM, A, B),
                    poisson_bracket(formal_form(FORM), fa, fb)),
        "poisson_std": (poisson_standard(A, B), poisson_standard(fa, fb)),
        "n_operator": (n_operator(G, "numeric").apply(ab), ordering_operator(
            standard_form(G, "formal", 0).symmetric_part(), minus_i).apply(
                formal_poly(ab))),
    }
    rep_a, rep_b = std_rep(A), std_rep(B)
    qa = Polynomial(("q",), {(3,): complex(0.3, 0.9), (1,): -2.0}, "numeric")
    pairs["compose"] = (rep_b.compose(rep_a),
                        formal_op(rep_b).compose(formal_op(rep_a)))
    pairs["adjoint"] = (formal_adjoint(rep_a), formal_adjoint(formal_op(rep_a)))
    pairs["apply"] = (weyl_rep(A).apply(qa),
                      formal_op(weyl_rep(A)).apply(formal_poly(qa)))
    shifts = (complex(0.5, 0.25), -1.5)
    pairs["A.translate"] = (A.translate(shifts), formal_poly(A).translate(
        tuple(map(exact, shifts))))
    sym = BilinearForm(G, [[0.5, complex(0.25, 1)], [complex(0.25, 1), -1.5]],
                       "numeric")
    pairs["ordering"] = (ordering_operator(sym, Z).apply(ab),
                         ordering_operator(formal_form(sym), z).apply(
                             formal_poly(ab)))
    for name, gens, v, alpha, cutoff in [
            ("exp", G, [0.5, complex(0.25, -1)], Z, 7),
            ("exp10", ("q1", "q2", "p1", "p2"),
             [0.5, complex(0.25, -1), -0.75, 1j / 3], complex(0.3, 0.4), 10)]:
        pairs[name] = (
            truncated_exponential(gens, v, alpha, cutoff, "numeric").base,
            truncated_exponential(gens, list(map(exact, v)), exact(alpha),
                                  cutoff, "formal", 0).base)
    for name, (num, ref) in pairs.items():
        assert relative_error(num, ref) <= ACCURACY, name
    # tau_a(A * B) - tau_a(A) * tau_a(B) is 0 exactly: its numeric worst
    # term is rounding, within 1e-14 of the largest term of tau_a(A * B)
    shifts = (0.5, -0.25)
    worst = translation_automorphism_defect(FORM, Z, A, B, shifts).defect_max
    scale = max(abs(c.val) for c in star(FORM, Z, A, B).translate(
        shifts).terms.values())
    assert float(worst) <= ACCURACY * scale


def test_continuity_sums_are_near_the_exact_values():
    # the frozen case, and one shaped like a continuity operation of the
    # flat benchmark: two dense dyadic 2-vectors and dyadic weights, kmax 10
    for weights, v, w, kmax in [
            ([0.7, 1.3], [0.5, 0.25], [0.125, -0.5], 8),
            ([0.875, 1.5], [-1.75, 0.625], [0.375, -1.25], 10)]:
        spec = SeminormSpec(weights, 0.5)
        got = star_continuity_report(
            spec, standard_form(G, "numeric"), minus_i_hbar("numeric"), v, w,
            kmax=kmax).partial_sums
        form = standard_form(G, "formal", 0)
        ev, ew = (truncated_exponential(G, list(map(exact, x)), 1, kmax,
                                        "formal", 0).base for x in (v, w))
        for k in range(kmax + 1):
            prod = star(form, GaussianRational(0, -1),
                        *(Polynomial(G, {e: c for e, c in x.terms.items()
                                         if sum(e) <= k}, "formal", 0)
                          for x in (ev, ew)))
            want = exact_seminorm(spec, prod)
            assert abs(Decimal(got[k]) - want) / want <= Decimal(ACCURACY), (
                kmax, k)
