"""The public option surface, pinned.

Every parameter with a default on a public function or method is an option
that tests and benchmarks must cover, and so is every ``ExperimentSpec``
field.  This module lists them all, so that adding one edits it on purpose.
Its validation counterpart: each range rule's message is written once.  And
its loop counterpart: every step the package takes is one of ``amp``'s loop,
and every linear solve is its one solve on a sign pattern.
"""

import importlib
import inspect
import pkgutil
import re
from dataclasses import MISSING, fields
from pathlib import Path

import amplasso
from amplasso import amp
from amplasso.harness import ExperimentSpec

DEFAULTED = {
    "amp.amp_run": ["max_iter", "tol", "observe"],
    "amp.ist_run": ["rescale_opnorm", "max_iter", "tol", "observe"],
    "amp.ist_solve_lasso": ["rescale_opnorm", "max_iter", "tol", "observe"],
    "amp.iterate": ["observe"],
    "cli.main": ["argv"],
    "instances.draw_matrix": ["out"],
    "instances.gen_instance": ["ensemble"],
    "instances.gen_planted_instance": ["ensemble", "sigma2"],
}

SPEC_FIELDS = [
    ("kind", MISSING), ("n", 1000), ("params", None), ("ensemble", "gaussian"),
    ("seeds", tuple(range(20))), ("alpha", None), ("lambdas", ()), ("max_iter", 2000),
    ("tol", 1e-8), ("t_target", 10), ("nnz_levels", ()), ("alpha_ist", 1.8),
    ("ist_rescale", 0.95), ("grid_points", 50), ("base_seed", 0), ("jobs", 1),
    ("out", None),
]


def _public_callables():
    """(``module.name``, function) for each public function of each module and
    each public method of its public classes, defined in that module."""
    for info in pkgutil.iter_modules(amplasso.__path__):
        module = importlib.import_module(f"amplasso.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_public_defaulted_parameters_are_pinned():
    found = {}
    for label, func in _public_callables():
        defaulted = [p.name for p in inspect.signature(func).parameters.values()
                     if p.default is not inspect.Parameter.empty]
        if defaulted:
            found[label] = defaulted
    assert found == DEFAULTED
    assert sum(map(len, found.values())) == 17


def test_experiment_spec_fields_are_pinned():
    assert [(f.name, f.default) for f in fields(ExperimentSpec)] == SPEC_FIELDS


# The message of a range rule: "... must be > 0", ">= 0", "finite", "must lie in"
RULE_MESSAGE = re.compile(r'"[a-z_0-9 ]*must (be (> 0|>= 0|finite)|lie in)')


def test_range_rules_are_written_only_in_the_checks_module():
    package = Path(amplasso.__file__).parent
    inline = [f"{path.name}:{number}: {line.strip()}"
              for path in sorted(package.glob("*.py")) if path.name != "_checks.py"
              for number, line in enumerate(path.read_text().splitlines(), 1)
              if RULE_MESSAGE.search(line)]
    assert inline == []


def _package_lines(token):
    """``file:line`` of every line of the package's source that contains ``token``."""
    package = Path(amplasso.__file__).parent
    return {f"{path.name}:{number}" for path in sorted(package.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if token in line}


def _amp_lines(function):
    """``amp.py:line`` of every line of ``function``'s source."""
    lines, first = inspect.getsourcelines(function)
    return {f"amp.py:{first + i}" for i in range(len(lines))}


def test_amp_step_is_called_only_in_the_loop():
    # AMP, IST, the LASSO reference and the harness protocols are one loop:
    # a second caller of amp_step would be a second loop
    calls = _package_lines("amp_step(") - _package_lines("def amp_step(")
    assert calls and calls <= _amp_lines(amp._iterate)


def test_one_solve_on_a_sign_pattern():
    # AMP's closed-form finish and the LASSO reference read one line of
    # stationary points per sign pattern: a second solve would be a second
    # factorization of A_S'A_S
    calls = _package_lines("linalg.solve(")
    assert len(calls) == 1 and calls <= _amp_lines(amp._pattern_solve)
