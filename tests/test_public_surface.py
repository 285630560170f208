"""The package's public surface: what ``simplexcr.__all__`` exports, and
the README's library example run as written."""
import pathlib
import re

import simplexcr

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Scalar copies of the grid path and test references, which the test suite
# keeps in tests/oracles.py; code with no consumer; and a Monte Carlo
# estimate of the closed form average_volume(spec, M).total / N.
REMOVED = (
    "induced_measure_sampler",
    "kl_bernoulli",
    "kl_divergence",
    "level_set_membership_via_pvalue",
    "log_pmf",
    "mixture_point_from_uniform",
    "outer_bound_reject",
    "polytope_membership",
    "sanov_membership",
    "uniform_prior_expected_volume",
)


def test_every_exported_name_resolves():
    assert len(set(simplexcr.__all__)) == len(simplexcr.__all__)
    for name in simplexcr.__all__:
        assert getattr(simplexcr, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in simplexcr.__all__
        assert not hasattr(simplexcr, name)


def test_readme_library_example_runs():
    """The README's python example runs, and each line it marks ``# True``
    evaluates to True."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    claims = [line.split("#")[0].strip() for line in code.splitlines()
              if line.rstrip().endswith("# True")]
    assert claims
    for expr in claims:
        assert eval(expr, namespace) is True, expr
