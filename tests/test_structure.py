"""Source-structure checks on src/starweyl.

A sum that vanishes leaves the stored form in one place, the reduce step
of scalars.py (int_reduce, and stored_reduce for numeric values): the
kernels, accumulate and every other sum add into their output and keep a
slot whose sum is zero. So no code pops or deletes a slot whose sum
vanished, and outside scalars.py no code filters the zero values out of
a term dict; the naive oracles, bruteforce.py, kept naive on purpose, are
exempt. The six term containers share one base class, coefficients cross
one boundary, the envelope engine and the operations on the stored terms
run on plain ints or complex values, and the term sums do not fork on the
scalar domain (see the end of this file).
"""

import ast
import os

import starweyl

PACKAGE = os.path.dirname(starweyl.__file__)
EXEMPT_FILES = {"bruteforce.py"}


def _method(node):
    """(dict name, method name) for d.get(...) / d.pop(...), else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    ):
        return node.func.value.id, node.func.attr
    return None


def _truth_tested(test):
    """x for a truth test `x` / `not x` of a name, else None."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        test = test.operand
    return test.id if isinstance(test, ast.Name) else None


def _drops_a_slot(stmts):
    """True when the statements pop a dict slot (d.pop(k, ...)) or delete
    one (del d[k])."""
    for node in (sub for stmt in stmts for sub in ast.walk(stmt)):
        if (_method(node) or ("", ""))[1] == "pop" and node.args:
            return True
        if isinstance(node, ast.Delete) and any(
                isinstance(t, ast.Subscript) for t in node.targets):
            return True
    return False


def _drops_zero_sums(fn):
    """True when fn (nested functions included) pops or deletes a dict
    slot in a branch of a truth test on a sum: `if s: d[k] = s` with
    `else: d.pop(k, None)`, or `if not s: del d[k]`."""
    return any(isinstance(node, ast.If) and _truth_tested(node.test)
               and _drops_a_slot(node.body + node.orelse)
               for node in ast.walk(fn))


def _item_value(loop):
    """v for a loop `for ..., v in d.items()` (a for statement or a
    comprehension's generator), else None."""
    it, target = loop.iter, loop.target
    if (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
            and it.func.attr == "items" and isinstance(target, ast.Tuple)
            and isinstance(target.elts[-1], ast.Name)):
        return target.elts[-1].id
    return None


def _filters_zeros(fn):
    """True when fn (nested functions included) keeps the nonzero values of
    a term dict: a comprehension over d.items() that truth-tests a value
    (`if v`) or a value it computes (`if (v := f(c))`), or a loop `for k, v
    in d.items()` that truth-tests v."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.DictComp, ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            values = set(map(_item_value, node.generators)) - {None}
            if values and any(
                    isinstance(c, ast.NamedExpr) or _truth_tested(c) in values
                    for g in node.generators for c in g.ifs):
                return True
        if isinstance(node, ast.For) and (value := _item_value(node)):
            if any(isinstance(sub, ast.If) and _truth_tested(sub.test) == value
                   for stmt in node.body for sub in ast.walk(stmt)):
                return True
    return False


def qualified_parts(tree):
    """(qualified name, node) of each function, method and other top-level
    statement of a module: "f", "C.m", "C" for a class body statement that
    is not a function, "<module>" for a module statement."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", None)
                yield (f"{node.name}.{name}" if name else node.name), item
        else:
            yield getattr(node, "name", "<module>"), node


def zero_drops(tree, filename):
    """(filename, qualified name, what) for each part of a module that drops
    a zero sum: "pop" where it pops or deletes the slot of a vanished sum,
    "filter" where it filters zero values out of a term dict outside
    scalars.py."""
    found = []
    for name, node in qualified_parts(tree):
        if _drops_zero_sums(node):
            found.append((filename, name, "pop"))
        if filename != "scalars.py" and _filters_zeros(node):
            found.append((filename, name, "filter"))
    return found


# the loop each kernel ran (mul_terms as it was), and accumulate's
OLD_KERNEL = (
    "def mul_terms(a, b):\n"
    "    out = {}\n"
    "    for ea, ca in a.items():\n"
    "        for eb, cb in b.items():\n"
    "            key = tuple(map(add, ea, eb))\n"
    "            v = ca * cb\n"
    "            prev = out.get(key)\n"
    "            v = v if prev is None else prev + v\n"
    "            if v:\n"
    "                out[key] = v\n"
    "            else:\n"
    "                out.pop(key, None)\n"
    "    return out\n"
)
OLD_ACCUMULATE = (
    "def accumulate(out, items):\n"
    "    for key, c in items:\n"
    "        prev = out.get(key)\n"
    "        s = c if prev is None else prev + c\n"
    "        if not s:\n"
    "            del out[key]\n"
    "        else:\n"
    "            out[key] = s\n"
    "    return out\n"
)
# the filters of LieAlgebra._bracket_ints, _Layout.unpack and
# Polynomial.map_coefficients as they were
OLD_FILTERS = '''
class LieAlgebra:
    def _bracket_ints(self, u, v):
        out = {}
        return int_reduce(du * dv * self._ic_den,
                          {key: n for key, n in out.items() if n})
class _Layout:
    def unpack(self, terms):
        return {self.slots(p): c for p, c in terms.items() if c}
class Polynomial:
    def map_coefficients(self, fn):
        return {e: v for e, c in self.terms.items() if (v := fn(c))}
    def prune(self, out):
        for key, v in out.items():
            if not v:
                continue
'''


def test_detector_sees_a_zero_sum_dropped():
    assert zero_drops(ast.parse(OLD_KERNEL), "kernels.py") == [
        ("kernels.py", "mul_terms", "pop")]
    # in scalars.py too, and in a method, deleting instead of popping
    method = "class T:\n" + "".join(
        "    " + line + "\n" for line in OLD_ACCUMULATE.splitlines())
    assert zero_drops(ast.parse(method), "scalars.py") == [
        ("scalars.py", "T.accumulate", "pop")]
    assert zero_drops(ast.parse(OLD_FILTERS), "lie.py") == [
        ("lie.py", "LieAlgebra._bracket_ints", "filter"),
        ("lie.py", "_Layout.unpack", "filter"),
        ("lie.py", "Polynomial.map_coefficients", "filter"),
        ("lie.py", "Polynomial.prune", "filter"),
    ]
    # scalars.py holds the reduce step's filter
    assert zero_drops(ast.parse(OLD_FILTERS), "scalars.py") == []
    # adding into a slot and keeping it, a config lookup with a default,
    # a worklist pop, a filter on the keys and one on the parts of a
    # vector are not drops
    kept = (
        "def f(out, items, cfg, work, vecs):\n"
        "    for key, c in items:\n"
        "        out[key] = out.get(key, 0) + c\n"
        "    v = cfg.get('z')\n"
        "    if v is None:\n"
        "        v = 1\n"
        "    g = work.pop(key)\n"
        "    text = [k for w, vec in vecs.items() for k, g in enumerate(vec) if g]\n"
        "    return {k: c for k, c in out.items() if k[-2] <= v}\n"
    )
    assert zero_drops(ast.parse(kept), "x.py") == []


def _package_zero_drops():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name not in EXEMPT_FILES:
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found += zero_drops(ast.parse(fh.read()), name)
    return found


def test_no_zero_sum_is_dropped_outside_the_reduce_step():
    assert _package_zero_drops() == []


def test_the_reduce_step_filters_once_per_domain():
    with open(os.path.join(PACKAGE, "scalars.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert [name for name, node in qualified_parts(tree)
            if _filters_zeros(node)] == ["int_reduce", "stored_reduce"]


# -- one term container --------------------------------------------------------
#
# Polynomial, TensorSquare, BilinearForm, DifferentialOperator, UEElement
# and FormalScalar inherit the container (immutability, truth, equality,
# sums, negation, text) from scalars.TermSum and keep only what differs
# between them. FormalScalar keeps its own __str__ alone: a scalar prints
# in the scalar grammar ("1/2+3/4*i" at order 0), not as a sum of terms.

TERM_SUMS = [
    ("poly.py", "Polynomial"),
    ("star.py", "TensorSquare"),
    ("star.py", "BilinearForm"),
    ("ops.py", "DifferentialOperator"),
    ("lie.py", "UEElement"),
    ("scalars.py", "FormalScalar"),
]
OWN_CONTAINER_METHODS = {"FormalScalar": {"__str__"}}
CONTAINER_METHODS = {
    "__setattr__", "__bool__", "__add__", "__sub__", "__neg__", "__eq__",
    "__str__",
}


def own_container_methods(tree, class_name):
    """Container methods the class defines or assigns in its own body."""
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == class_name]
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names & CONTAINER_METHODS


def test_detector_sees_a_container_method():
    src = (
        "class Polynomial(TermSum):\n"
        "    def __neg__(self):\n"
        "        pass\n"
        "    __bool__ = lambda self: True\n"
        "    def degree(self):\n"
        "        pass\n"
    )
    assert own_container_methods(ast.parse(src), "Polynomial") == {
        "__neg__", "__bool__"
    }


def test_term_sums_inherit_the_container():
    found = {}
    for filename, class_name in TERM_SUMS:
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            own = own_container_methods(ast.parse(fh.read()), class_name)
        own -= OWN_CONTAINER_METHODS.get(class_name, set())
        if own:
            found[class_name] = sorted(own)
    assert found == {}


def test_merge_terms_stays_gone():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                assert "merge_terms" not in fh.read(), name


# -- one coefficient boundary --------------------------------------------------
#
# scalars.py alone reads a numeric coefficient's value (.val): everything
# else writes coefficients through to_json or term_text. parse.py alone
# evaluates coefficient text; outside it, Session.parse_scalar, which reads
# the user's scalar, is the one caller, and JSON goes through
# parse.scalar_from_json.

TEXT_READERS = {"scalar_from_text", "eval_constant"}
TEXT_READER_CALLERS = {("session.py", "Session.parse_scalar")}


def boundary_crossings(tree, filename):
    """(filename, qualified name, what) for each read of .val outside
    scalars.py and each call of a text reader outside parse.py, minus the
    allowed callers."""
    found = []
    for name, node in qualified_parts(tree):
        for sub in ast.walk(node):
            if (filename != "scalars.py" and isinstance(sub, ast.Attribute)
                    and sub.attr == "val"):
                found.append((filename, name, ".val"))
            if isinstance(sub, ast.Call):
                called = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if (called in TEXT_READERS and filename != "parse.py"
                        and (filename, name) not in TEXT_READER_CALLERS):
                    found.append((filename, name, called))
    return found


def test_detector_sees_a_boundary_crossing():
    src = (
        "class Session:\n"
        "    def parse_scalar(self, text):\n"
        "        return scalar_from_text(text)\n"
        "    def to_json(self):\n"
        "        return [self.z.val.real, parse.eval_constant(ast)]\n"
        "def read(raw):\n"
        "    return scalar_from_text(raw)\n"
    )
    tree = ast.parse(src)
    assert sorted(boundary_crossings(tree, "session.py")) == [
        ("session.py", "Session.to_json", ".val"),
        ("session.py", "Session.to_json", "eval_constant"),
        ("session.py", "read", "scalar_from_text"),
    ]
    assert boundary_crossings(tree, "parse.py") == [
        ("parse.py", "Session.to_json", ".val"),
    ]
    # the allowed caller is Session.parse_scalar in session.py
    assert sorted(boundary_crossings(tree, "scalars.py")) == [
        ("scalars.py", "Session.parse_scalar", "scalar_from_text"),
        ("scalars.py", "Session.to_json", "eval_constant"),
        ("scalars.py", "read", "scalar_from_text"),
    ]


def test_coefficients_cross_one_boundary():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found += boundary_crossings(ast.parse(fh.read()), name)
    assert found == []


# -- one representation in the raw engine ---------------------------------------
#
# A term sum stores its terms in the stored form of scalars.py: ints in the
# formal domain, complex values in the numeric one. The envelope engine, the
# kernels that lift, shift and scale encoded terms, the canonicaliser, and
# the operations that read and write the stored form run on those plain
# values; the scalar types appear only where a scalar operand is encoded
# and where .terms, text and JSON decode, and those operations do not read
# .terms, which builds a scalar object per term. A FormalScalar is such a
# term sum too: its product, power, conjugate and cut, and int_encode, which
# concatenates the stored ints of a sum's coefficients, run on its ints and
# do not read its decoded .coeffs either. So do the level loops of the two
# exponential series, truncated_exponential's and the ordering operator's,
# in both domains: they build no scalar per order. The one-pass continuity
# report, from star_continuity_report down to the kernel's slice buckets,
# sums the stored values as well.

SCALAR_NAMES = {"GaussianRational", "FormalScalar", "GR_ZERO", "GR_ONE",
                "GR_I", "Fraction"}
INT_ONLY = {
    ("lie.py", "LieAlgebra._leftmul_raw"),
    ("lie.py", "LieAlgebra._mono_mul_raw"),
    ("lie.py", "LieAlgebra._sym_raw"),
    ("lie.py", "LieAlgebra._sym_inverse_raw"),
    ("lie.py", "LieAlgebra._gutt_mono_raw"),
    ("lie.py", "UEElement.__mul__"),
    ("lie.py", "_lowest_orders"),
    ("lie.py", "_envelope_product"),
    ("lie.py", "ue_normal_order"),
    ("lie.py", "pbw_symmetrize"),
    ("lie.py", "pbw_symmetrize_inverse"),
    ("lie.py", "gutt_star"),
    ("lie.py", "kks_bracket"),
    ("lie.py", "LieAlgebra._bracket_ints"),
    ("lie.py", "LieAlgebra._check_jacobi"),
    ("lie.py", "_vec_sum"),
    ("lie.py", "bch"),
    ("kernels.py", "lift_terms"),
    ("kernels.py", "scale_terms"),
    ("kernels.py", "shift_terms"),
    ("kernels.py", "_binomial_rows"),
    ("kernels.py", "star_slices"),
    ("kernels.py", "_series"),
    ("kernels.py", "p_lambda_terms"),
    ("scalars.py", "int_encode"),
    ("scalars.py", "int_reduce"),
    ("scalars.py", "int_canonical"),
    ("scalars.py", "TermSum.__neg__"),
    ("scalars.py", "TermSum._cut"),
    ("scalars.py", "TermSum.__add__"),
    ("scalars.py", "TermSum.scale"),
    ("scalars.py", "FormalScalar.__mul__"),
    ("scalars.py", "FormalScalar.__pow__"),
    ("scalars.py", "FormalScalar.conjugate"),
    ("scalars.py", "FormalScalar.truncate"),
    ("poly.py", "Polynomial.__mul__"),
    ("poly.py", "Polynomial.partial_derivative"),
    ("poly.py", "Polynomial.translate"),
    ("poly.py", "Polynomial.hbar_coefficient"),
    ("star.py", "_fold"),
    ("star.py", "_star_formal"),
    ("star.py", "BilinearForm.transpose"),
    ("star.py", "TensorSquare.of"),
    ("star.py", "TensorSquare.mu"),
    ("star.py", "OrderingOperator.apply"),
    ("star.py", "_exp_levels"),
    ("star.py", "p_lambda"),
    ("star.py", "poisson_bracket"),
    ("star.py", "_delta_entries"),
    ("star.py", "_star_numeric"),
    ("star.py", "_numeric_form"),
    ("star.py", "_star_slices"),
    ("seminorms.py", "truncated_exponential"),
    ("seminorms.py", "_slices"),
    ("seminorms.py", "star_continuity_report"),
    ("ops.py", "DifferentialOperator.apply"),
    ("ops.py", "DifferentialOperator.compose"),
    ("ops.py", "DifferentialOperator.formal_adjoint"),
    ("ops.py", "DifferentialOperator._symbol"),
    ("ops.py", "DifferentialOperator._from_symbol"),
    ("ops.py", "std_rep"),
}


DECODED_VIEWS = {"terms", "coeffs"}


def scalar_names(node):
    """Scalar-type names a node mentions, as a name or an attribute, and
    "terms" or "coeffs" when it reads a decoded view."""
    return sorted({
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and n.id in SCALAR_NAMES)
        or (isinstance(n, ast.Attribute)
            and (n.attr in SCALAR_NAMES or n.attr in DECODED_VIEWS))
    })


def int_only_offenders(sources):
    """(filename, part, names) for each integer-only part of the sources
    ({filename: source}) that mentions a scalar type; a missing part is an
    offender too."""
    found = []
    trees = {name: ast.parse(src) for name, src in sources.items()}
    for filename, part in sorted(INT_ONLY):
        node = dict(qualified_parts(trees[filename])).get(part)
        names = ["<missing>"] if node is None else scalar_names(node)
        if names:
            found.append((filename, part, names))
    return found


# _leftmul_raw as it was on GaussianRational
OLD_LEFTMUL = '''
class LieAlgebra:
    def _leftmul_raw(self, j, mono):
        key = (j, mono)
        hit = self._cache_leftmul.get(key)
        if hit is not None:
            return hit
        if not mono or j <= mono[0]:
            out = {(j,) + mono: GR_ONE}
        else:
            a = mono[0]
            rest = mono[1:]
            out = accumulate({}, (
                (m2, g1 * g2)
                for m1, g1 in self._leftmul_raw(j, rest).items()
                for m2, g2 in self._leftmul_raw(a, m1).items()
            ))
            row = self._c[j][a]
            for k in range(self.dim):
                ck = row[k]
                if not ck:
                    continue
                f = GR_I * ck
                accumulate(out, (
                    (m1, f * g1) for m1, g1 in self._leftmul_raw(k, rest).items()
                ))
        self._cache_leftmul[key] = out
        return out
'''

# Polynomial.translate as it was, one FormalScalar product per term
OLD_TRANSLATE = '''
class Polynomial:
    def translate(self, shifts):
        n = len(self.gens)
        sh, trunc = coerce_coeffs(shifts, self.domain, self.trunc)
        src = self._cut(trunc)
        one = coerce_coeff(1, self.domain, trunc)
        out = {}
        for e, c in src.terms.items():
            acc = {(0,) * n: c}
            for i in range(n):
                k = e[i]
                if k == 0:
                    continue
                if not sh[i]:
                    acc = {key[:i] + (k,) + key[i + 1:]: v
                           for key, v in acc.items()}
                    continue
                powers = [one]
                for _ in range(k):
                    powers.append(powers[-1] * sh[i])
                binom = [powers[k - j] * math.comb(k, j) for j in range(k + 1)]
                acc = {key[:i] + (j,) + key[i + 1:]: w
                       for key, v in acc.items()
                       for j in range(k + 1)
                       if (w := v * binom[j])}
            accumulate(out, acc.items())
        return self._wrap(out, trunc)
'''


def _replace_method(source, class_name, old_source):
    """source with the method of class_name that old_source defines (in a
    class of its own) put in place of the current one."""
    old = ast.parse(old_source).body[0].body[0]
    tree = ast.parse(source)
    (cls,) = [n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == class_name]
    cls.body = [old if getattr(n, "name", None) == old.name else n
                for n in cls.body]
    return ast.unparse(tree)


def _sources():
    out = {}
    for name in ("lie.py", "kernels.py", "poly.py", "scalars.py", "star.py",
                 "ops.py", "seminorms.py"):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def test_detector_sees_a_scalar_in_the_raw_engine():
    sources = _sources()
    lie = _replace_method(sources["lie.py"], "LieAlgebra", OLD_LEFTMUL)
    assert int_only_offenders({**sources, "lie.py": lie}) == [
        ("lie.py", "LieAlgebra._leftmul_raw", ["GR_I", "GR_ONE"]),
    ]
    poly = sources["poly.py"].replace(
        "kernels.mul_terms(a._data, b._data)",
        "kernels.mul_terms(a._data, {k: Fraction(v) for k, v in b._data.items()})")
    assert int_only_offenders({**sources, "poly.py": poly}) == [
        ("poly.py", "Polynomial.__mul__", ["Fraction"]),
    ]
    # the canonicaliser folding i on Gaussian rationals
    scalars = sources["scalars.py"].replace(
        "t[key] = t.get(key, 0) + v", "t[key] = t.get(key, GR_ONE * 0) + v")
    assert int_only_offenders({**sources, "scalars.py": scalars}) == [
        ("scalars.py", "int_canonical", ["GR_ONE"]),
    ]


def test_detector_sees_a_translation_or_scaling_off_the_codec():
    sources = _sources()
    # the per-term expansion reads the decoded coefficients
    poly = _replace_method(sources["poly.py"], "Polynomial", OLD_TRANSLATE)
    assert int_only_offenders({**sources, "poly.py": poly}) == [
        ("poly.py", "Polynomial.translate", ["terms"]),
    ]
    scalars = sources["scalars.py"].replace(
        "stored_encode(self.domain, {(): c}, trunc)",
        "stored_encode(self.domain, {(): c * GR_ONE}, trunc)")
    assert int_only_offenders({**sources, "scalars.py": scalars}) == [
        ("scalars.py", "TermSum.scale", ["GR_ONE"]),
    ]
    kernels = sources["kernels.py"].replace("powers = [{(0, 0): 1}]",
                                            "powers = [{(0, 0): Fraction(1)}]")
    assert int_only_offenders({**sources, "kernels.py": kernels}) == [
        ("kernels.py", "_binomial_rows", ["Fraction"]),
    ]


# int_encode and FormalScalar.conjugate as they were, on the decoded
# Gaussian rationals
OLD_INT_ENCODE = '''
def int_encode(terms, trunc):
    parts = {}
    for e, c in terms.items():
        for r, g in c.coeffs.items():
            if r <= trunc:
                if g.re:
                    parts[e + (r, 0)] = g.re
                if g.im:
                    parts[e + (r, 1)] = g.im
    den = math.lcm(*(x.denominator for x in parts.values()))
    return den, {key: x.numerator * (den // x.denominator)
                 for key, x in parts.items()}
'''
OLD_CONJUGATE = '''
class FormalScalar:
    def conjugate(self):
        return FormalScalar(
            {r: c.conjugate() for r, c in self.coeffs.items()},
            self.trunc,
            _clean=True,
        )
'''


def test_detector_sees_a_formal_scalar_off_the_stored_ints():
    sources = _sources()
    tree = ast.parse(sources["scalars.py"])
    tree.body = [ast.parse(OLD_INT_ENCODE).body[0]
                 if getattr(n, "name", None) == "int_encode" else n
                 for n in tree.body]
    scalars = _replace_method(ast.unparse(tree), "FormalScalar", OLD_CONJUGATE)
    assert int_only_offenders({**sources, "scalars.py": scalars}) == [
        ("scalars.py", "FormalScalar.conjugate", ["FormalScalar", "coeffs"]),
        ("scalars.py", "int_encode", ["coeffs"]),
    ]


# the formal exponential's loop as it was, one FormalScalar product per order
OLD_EXP_LOOP = '''
def _slices(step, cutoff):
    power = Polynomial.one(step.gens, step.domain, step.trunc)
    scale = step.coerce_scalar(1)
    slices = []
    for k in range(1, cutoff + 1):
        power = power * step
        scale = scale * (alpha * Fraction(1, k))
        term = power * scale
        slices.append((term._den, term._data))
    return step.trunc, slices
'''


def test_detector_sees_a_scalar_per_order_in_the_exponential():
    sources = _sources()
    tree = ast.parse(sources["seminorms.py"])
    tree.body = [ast.parse(OLD_EXP_LOOP).body[0]
                 if getattr(n, "name", None) == "_slices" else n
                 for n in tree.body]
    seminorms = ast.unparse(tree)
    assert int_only_offenders({**sources, "seminorms.py": seminorms}) == [
        ("seminorms.py", "_slices", ["Fraction"]),
    ]


# the BCH recursion as it was, on Gaussian rationals through bracket_vec
OLD_BCH = '''
def bch(algebra, x, y, order):
    xv = tuple(_gr(v) for v in x)
    yv = tuple(_gr(v) for v in y)
    zero = tuple(GR_ZERO for _ in range(algebra.dim))
    s = tuple(a + b for a, b in zip(xv, yv))
    half_diff = tuple((a - b) * Fraction(1, 2) for a, b in zip(xv, yv))
    bern = bernoulli_numbers(order - 1)
    z = [zero, s]
    w = [[s] + [zero] * (order - 1)]
    for n in range(1, order):
        w.append([zero] * order)
        for j in range(1, n + 1):
            acc = zero
            for k in range(1, n - j + 2):
                acc = _add_scaled(acc,
                                  algebra.bracket_vec(z[k], w[j - 1][n - k]))
            w[j][n] = acc
        acc = _add_scaled(zero, algebra.bracket_vec(half_diff, z[n]))
        for p in range(1, n // 2 + 1):
            c = GaussianRational(bern[2 * p] / math.factorial(2 * p))
            acc = _add_scaled(acc, w[2 * p][n], c)
        z.append(_add_scaled(zero, acc, GaussianRational(Fraction(1, n + 1))))
    return LieSeries(algebra, order, dict(enumerate(z[1:], 1)))
'''


def test_detector_sees_a_scalar_in_the_bch_recursion():
    sources = _sources()
    tree = ast.parse(sources["lie.py"])
    tree.body = [ast.parse(OLD_BCH).body[0]
                 if getattr(n, "name", None) == "bch" else n
                 for n in tree.body]
    assert int_only_offenders({**sources, "lie.py": ast.unparse(tree)}) == [
        ("lie.py", "bch", ["Fraction", "GR_ZERO", "GaussianRational"]),
    ]
    # the bracket reading the structure constants as Gaussian rationals
    lie = sources["lie.py"].replace(
        "out[key] = out.get(key, 0) + ",
        "out[key] = out.get(key, GR_ZERO) + ")
    assert int_only_offenders({**sources, "lie.py": lie}) == [
        ("lie.py", "LieAlgebra._bracket_ints", ["GR_ZERO"]),
    ]


def test_raw_engine_runs_on_ints():
    assert int_only_offenders(_sources()) == []


# -- one stored form for both domains -------------------------------------------
#
# scalars.py alone knows how each domain stores its terms: poly.py and ops.py
# (and the methods of the term sums in star.py, lie.py and scalars.py, the
# home of TermSum) compute on the stored pair the same way in both domains and reach the domain through the
# stored_* functions. A comparison of a domain with a domain name forks on
# the domain; only these parts may make one: hbar_coefficient (formal
# only), to_json (which writes the truncation of a formal sum) and
# poly_from_ast (whose h leaf is formal only). A comparison of two domains
# is a compatibility check and reads no stored form. The operations that
# run one loop in both domains, the Poisson bracket, the ordering operator
# and the truncated exponential with their helpers, make none either.

DOMAIN_FORK_FILES = {"poly.py", "ops.py"}
DOMAIN_FORK_CLASSES = {("star.py", "TensorSquare"), ("star.py", "BilinearForm"),
                       ("star.py", "OrderingOperator"),
                       ("lie.py", "UEElement"), ("scalars.py", "TermSum"),
                       ("scalars.py", "FormalScalar")}
DOMAIN_FORK_FUNCTIONS = {("star.py", "_fold"), ("star.py", "poisson_bracket"),
                         ("star.py", "p_lambda"),
                         ("star.py", "_delta_entries"),
                         ("star.py", "_exp_levels"),
                         ("seminorms.py", "truncated_exponential"),
                         ("seminorms.py", "_slices")}
DOMAIN_FORKS_ALLOWED = {
    ("poly.py", "Polynomial.hbar_coefficient"),
    ("poly.py", "Polynomial.to_json"),
    ("poly.py", "poly_from_ast"),
    ("ops.py", "DifferentialOperator.to_json"),
}


def _is_domain(node):
    return (isinstance(node, ast.Attribute) and node.attr == "domain") or (
        isinstance(node, ast.Name) and node.id == "domain")


def domain_forks(tree, filename):
    """(filename, part) for each part in scope that compares a domain with
    a string, minus the allowed parts."""
    found = []
    for name, node in qualified_parts(tree):
        in_scope = (filename in DOMAIN_FORK_FILES
                    or (filename, name) in DOMAIN_FORK_FUNCTIONS
                    or ((filename, name.split(".")[0]) in DOMAIN_FORK_CLASSES
                        and "." in name))
        if not in_scope or (filename, name) in DOMAIN_FORKS_ALLOWED:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare):
                sides = [sub.left, *sub.comparators]
                if any(map(_is_domain, sides)) and any(
                        isinstance(c, ast.Constant) and isinstance(c.value, str)
                        for c in sides):
                    found.append((filename, name))
                    break
    return found


# Polynomial.degree and DifferentialOperator.formal_adjoint as they were,
# with a numeric fork
OLD_DEGREE = '''
class Polynomial:
    def degree(self):
        if not self._data:
            return -1
        cut = -2 if self.domain == "formal" else None
        return max(sum(e[:cut]) for e in self._data)
'''
OLD_ADJOINT_HEAD = '''
class DifferentialOperator:
    def formal_adjoint(self):
        den, src = self._slotted()
        formal = self.domain == "formal"
        return formal
'''


def _domain_forks(sources):
    found = []
    for name, src in sorted(sources.items()):
        found += domain_forks(ast.parse(src), name)
    return found


def test_detector_sees_a_domain_fork():
    sources = _sources()
    poly = _replace_method(sources["poly.py"], "Polynomial", OLD_DEGREE)
    ops = _replace_method(sources["ops.py"], "DifferentialOperator",
                          OLD_ADJOINT_HEAD)
    assert _domain_forks({**sources, "poly.py": poly, "ops.py": ops}) == [
        ("ops.py", "DifferentialOperator.formal_adjoint"),
        ("poly.py", "Polynomial.degree"),
    ]
    # a fork in a term-sum method of another module
    star = sources["star.py"].replace(
        "a._check(b)\n", "a._check(b)\n        assert a.domain != 'x'\n", 1)
    assert _domain_forks({**sources, "star.py": star}) == [
        ("star.py", "TensorSquare.of"),
    ]
    # and in the container that scalars.py holds
    scalars = sources["scalars.py"].replace(
        "self._check(other)\n", "self._check(other)\n        assert self.domain != 'x'\n", 1)
    assert _domain_forks({**sources, "scalars.py": scalars}) == [
        ("scalars.py", "TermSum.__add__"),
    ]
    # the numeric branches that poisson_bracket and truncated_exponential
    # had
    star = sources["star.py"].replace(
        "dl, entries = _fold(form - form.transpose(), 1, trunc)\n",
        "dl, entries = _fold(form - form.transpose(), 1, trunc)\n"
        "    assert a.domain == 'formal'\n", 1)
    seminorms = sources["seminorms.py"].replace(
        "step = lin.scale(alpha)\n",
        "step = lin.scale(alpha) if domain == 'formal' else lin\n", 1)
    assert _domain_forks({**sources, "star.py": star,
                          "seminorms.py": seminorms}) == [
        ("seminorms.py", "truncated_exponential"),
        ("star.py", "poisson_bracket"),
    ]
    # and in the ordering operator and its level loop
    star = sources["star.py"].replace(
        "level = f._cut(trunc)\n",
        "level = f._cut(trunc if f.domain == 'formal' else f.trunc)\n", 1)
    star = star.replace(
        "levels = _exp_levels(f,",
        "levels = f.domain == 'formal' and _exp_levels(f,", 1)
    assert _domain_forks({**sources, "star.py": star}) == [
        ("star.py", "_exp_levels"),
        ("star.py", "OrderingOperator.apply"),
    ]
    # a compatibility check, an allowed part and a function outside the
    # term sums of star.py are not forks
    check = "def f(a, b):\n    return a.domain != b.domain\n"
    assert domain_forks(ast.parse(check), "poly.py") == []
    allowed = "class Polynomial:\n    def to_json(self):\n" \
        "        return self.domain == 'formal'\n"
    assert domain_forks(ast.parse(allowed), "poly.py") == []
    outside = "def star(a):\n    return a.domain == 'formal'\n"
    assert domain_forks(ast.parse(outside), "star.py") == []
    assert domain_forks(ast.parse(outside), "ops.py") == [("ops.py", "star")]


def test_term_sums_do_not_fork_on_the_domain():
    assert _domain_forks(_sources()) == []


# The star kernels run the product as a bidifferential operator: a
# derivative table of the left factor against one merged right factor per
# multi-index (kernels._series). Neither star_terms nor star_slices builds
# the tensor square a (x) b, a dict with one key ka << shift | kb per pair
# of terms.

TENSOR_FREE = {"star_terms", "star_slices"}


def _shifted_or(node):
    """True for an expression x << s | y."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.LShift))


def tensor_squares(tree):
    """The TENSOR_FREE functions of a kernels.py tree that key a dict by
    x << s | y, in a display, a comprehension or an item assignment, or
    shift a name up in place (x <<= s), as the pair former did before it
    or-ed in the right key."""
    found = []
    for name, node in qualified_parts(tree):
        if name not in TENSOR_FREE:
            continue
        for sub in ast.walk(node):
            keys = []
            if isinstance(sub, ast.DictComp):
                keys = [sub.key]
            elif isinstance(sub, ast.Dict):
                keys = sub.keys
            elif isinstance(sub, ast.Assign):
                keys = [t.slice for t in sub.targets
                        if isinstance(t, ast.Subscript)]
            if any(map(_shifted_or, keys)) or (
                    isinstance(sub, ast.AugAssign)
                    and isinstance(sub.op, ast.LShift)):
                found.append(name)
                break
    return sorted(found)


def _replace_function(source, old_source):
    """source with the module-level function that old_source defines put in
    place of the current one."""
    old = ast.parse(old_source).body[0]
    tree = ast.parse(source)
    tree.body = [old if getattr(n, "name", None) == old.name else n
                 for n in tree.body]
    return ast.unparse(tree)


# star_terms forming the tensor square a (x) b in a comprehension, and
# star_slices forming its pairs inline as the pair former did
OLD_STAR = '''
def star_terms(entries, zfacts, a, b, rmax, window=None):
    lay = _Layout(entries, a, b, rmax)
    s = lay.shift
    t = {lay.key(ea) << s | lay.key(eb): ca * cb
         for ea, ca in a.items() for eb, cb in b.items()}
    return lay.unpack(t)
'''
OLD_SLICES = '''
def star_slices(entries, zfacts, a, b, rmax, n):
    lay = _Layout(entries, a, b, rmax, n, True)
    s = lay.shift
    t = {}
    for ka, ca in a.items():
        ka = lay.key(ka)
        ka <<= s
        for kb, cb in b.items():
            t[ka | lay.key(kb)] = ca * cb
    return t
'''


def test_detector_sees_a_tensor_square():
    source = _sources()["kernels.py"]
    mutant = _replace_function(_replace_function(source, OLD_STAR),
                               OLD_SLICES)
    assert tensor_squares(ast.parse(mutant)) == ["star_slices", "star_terms"]
    # the same keys in a function outside TENSOR_FREE are not looked at
    other = OLD_STAR.replace("def star_terms", "def other_terms")
    assert tensor_squares(ast.parse(other)) == []


def test_star_kernels_build_no_tensor_square():
    tree = ast.parse(_sources()["kernels.py"])
    assert TENSOR_FREE <= {name for name, _ in qualified_parts(tree)}
    assert tensor_squares(tree) == []


# compose and formal_adjoint run on the operator's symbol through star.py
# (the star kernel and the ordering operator's level loop); ops.py keeps no
# Leibniz loop of its own, which would need itertools.product over the
# multi-indices and math.comb.

def module_imports(tree):
    """The top-level module names a tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_detector_sees_a_leibniz_import():
    tree = ast.parse("import itertools\nfrom math import comb\nfrom . import x\n")
    assert module_imports(tree) == {"itertools", "math"}


def test_ops_has_no_leibniz_loop():
    with open(os.path.join(PACKAGE, "ops.py"), encoding="utf-8") as fh:
        imports = module_imports(ast.parse(fh.read()))
    assert not imports & {"itertools", "math"}
