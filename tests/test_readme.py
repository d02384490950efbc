"""The README's library tour runs and gives the values its comments state."""
import ast
import re
from pathlib import Path

import pytest

from genprod.contraction import Verdict
from genprod.series import ConditionVerdict

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_values():
    """Run the README's python block; map each bare expression to its value."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "the README should hold one python block"
    source = blocks[0]
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "<README>", "eval")
            values[ast.get_source_segment(source, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "<README>", "exec"), namespace)
    return values


@pytest.fixture(scope="module")
def tour():
    return _tour_values()


def test_tour_coefficient_and_partial_norms(tour):
    assert tour["ergodicity_coefficient_l1(A)"] == pytest.approx(0.7)
    assert tour["partial_norm(A, H, L1).value"] == pytest.approx(0.7)
    sampled = tour['partial_norm(A, H, L1, route="sample", samples=10_000, '
                   'seed=0).value']
    assert sampled == pytest.approx(0.7)
    assert tour["check_H_contractor(A, H, L1).certificate"]["k"] == \
        pytest.approx(0.7)


def test_tour_equivalence_audit(tour):
    audit = tour["equiv_theorem_audit(np.diag([1.0, 0.5]), L2)"]
    assert audit.k == pytest.approx(0.5)
    assert audit.gamma == pytest.approx(1 / 3)
    assert {v.kind for v in (audit.nonexpansive, audit.paracontracting,
                             audit.l_paracontracting, audit.h_contractor)} \
        == {Verdict.CERTIFIED}


def test_tour_products_and_conditions(tour):
    assert tour["weak_ergodicity_experiment(seq, [sched], 1e-8, 100)"
                ".runs[0].crossed_at"] == 52
    assert tour["check_condition_C(fam)"] == ConditionVerdict.HOLDS
    assert tour["check_condition_D(TailModel.constant_value(0.7))"] == \
        ConditionVerdict.HOLDS
    assert tour["stochastic_simple_one(A).subdominant_modulus"] == \
        pytest.approx(0.7)
