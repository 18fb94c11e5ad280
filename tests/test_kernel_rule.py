"""The per-unit kernels call numpy's C entry points, not its Python wrappers.

np.sum, np.max, np.min and np.mean each pass through a Python-level
dispatcher before the ufunc reduction they run, and np.stack through a
Python function before the copy np.array makes; on the kernels' small
shapes that overhead is most of the call.  The kernels named here run
np.add.reduce / np.maximum.reduce (or the array methods) and np.array
instead, which give the same bits.
"""

import ast
from pathlib import Path

import pytest

import sbpu

SRC = Path(sbpu.__file__).parent
BANNED = {"sum", "max", "min", "mean", "stack"}
KERNELS = {
    "objectives.py": ["softmax", "_ACTS", "_max_columns", "_row_norms",
                      "_project_rows",
                      "QuadraticStack", "ClassifierObjective._forward",
                      "ClassifierObjective._batch", "ClassifierObjective._loss",
                      "ClassifierObjective._grad", "ClassifierObjective._loss_certified",
                      "ClassifierObjective.logits",
                      "ClassifierObjective.predict", "ClassifierObjective.loss",
                      "ClassifierObjective.grad"],
    "params.py": ["layer_sq_sums", "_row_sq_sums"],
    "attacks.py": ["ir_reconstruct"],
    "federation.py": ["Cohort", "_local_step", "run_round", "_weighted_mean", "_divergence",
                      "_defend"],
    "seeds.py": ["_carry", "lemire", "pcg64_words", "pcg64_raw"],
    "mutation.py": ["_SelectorPlan.rows", "_branch_update", "_dispatch_matrix", "_envelopes"],
}


def _definitions(tree):
    """Qualified name -> node for every module-level function, class and
    single-name assignment, and every method."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            out[node.targets[0].id] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


@pytest.mark.parametrize("module", sorted(KERNELS))
def test_kernels_avoid_numpy_python_wrappers(module):
    defs = _definitions(ast.parse((SRC / module).read_text()))
    for name in KERNELS[module]:
        assert name in defs, f"kernel {module}:{name} not found"
        uses = [f"line {n.lineno}: np.{n.attr}" for n in ast.walk(defs[name])
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "np" and n.attr in BANNED]
        assert not uses, f"{module}:{name} uses " + ", ".join(uses)
