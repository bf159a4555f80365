"""The import boundary and the public names of the package.

`import starweyl` and every command except `verify` leave `verify.py` and
`bruteforce.py` unloaded; their names resolve on first use (PEP 562). Each
check runs in a fresh interpreter, since the rest of the suite loads both
modules.
"""

import os
import subprocess
import sys
import textwrap

import starweyl

# the public names of dir(starweyl) right after `import starweyl`, from
# before verify and bruteforce loaded on first use
PUBLIC_NAMES = (
    "BchReport BilinearForm BoxOverflowError CRITERIA ConfigError "
    "ContinuityReport ConvergenceReport DEFAULT_TRUNCATION DefectReport "
    "DensePolynomial DifferentialOperator FormalScalar GaussianRational "
    "Generators IncompatibleError LieAlgebra LieSeries NonFiniteError "
    "NumericScalar OrderingOperator ParseError Polynomial RESERVED_NAMES "
    "SUITES SeminormSpec Session StarWeylError TruncatedElement "
    "TruncationError UEElement VerifyResult apply_equivalence bch "
    "bch_exponential bruteforce check_bch_property errors "
    "exponential_convergence_report formal_adjoint gutt_star "
    "hbar_exponential heisenberg3 inner_automorphism_defect jacobi_defect "
    "kernels kks_bracket lie minus_i_hbar n_operator naive_bch_dynkin "
    "naive_bch_via_ue naive_star ops ordering_operator parse "
    "parse_expression pbw_symmetrize pbw_symmetrize_inverse poisson_bracket "
    "poisson_standard poly poly_from_text run_suite scalar_from_text scalars "
    "seminorm_pR seminorms session sl2 standard_form star "
    "star_continuity_report star_standard star_weyl std_rep "
    "total_degree translation_automorphism_defect truncated_exponential "
    "ue_normal_order verify weyl_form weyl_relation_defect weyl_rep"
).split()


def run_fresh(code):
    """Run code in a fresh interpreter that finds this checkout's package;
    return its stdout."""
    src = os.path.dirname(os.path.dirname(starweyl.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    r = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_only_verify_loads_the_criteria_and_the_oracles():
    out = run_fresh("""
        import sys
        import starweyl
        from starweyl import cli

        def loaded():
            return [m for m in ("starweyl.verify", "starweyl.bruteforce")
                    if m in sys.modules]

        print(loaded())
        print(cli.main(["star", "p", "q"]))
        print(loaded())
        print(cli.main(["verify", "roundtrip"]))
        print(loaded())
    """)
    lines = out.splitlines()
    assert lines[0] == lines[3] == "[]"
    assert lines[1:3] == ["q*p - i*h", "0"]
    assert lines[-2:] == ["0", "['starweyl.verify', 'starweyl.bruteforce']"]


def test_every_public_name_resolves():
    out = run_fresh(f"""
        import sys
        import starweyl

        names = {PUBLIC_NAMES!r}
        public = [n for n in dir(starweyl) if not n.startswith("_")]
        print(sorted(public) == sorted(names))
        star_ns = {{}}
        exec("from starweyl import *", star_ns)
        print(sorted(n for n in star_ns if not n.startswith("_")) == sorted(names))
        print(all(star_ns[n] is getattr(starweyl, n) for n in names))
        print(starweyl.verify is sys.modules["starweyl.verify"])
        print(starweyl.bruteforce is sys.modules["starweyl.bruteforce"])
        print(starweyl.SUITES is starweyl.verify.SUITES)
        # names the package does not have
        for name in ("no_such_name", "TensorSquare", "p_lambda",
                     "star_term_count"):
            try:
                getattr(starweyl, name)
            except AttributeError as exc:
                print(exc)
    """)
    assert out.splitlines() == ["True"] * 6 + [
        f"module 'starweyl' has no attribute {name!r}"
        for name in ("no_such_name", "TensorSquare", "p_lambda",
                     "star_term_count")
    ]


def test_cli_spells_out_the_verify_suites():
    from starweyl import cli, verify

    assert cli._SUITES == verify.SUITES
