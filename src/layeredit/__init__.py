"""Exact solvers for multi-layer and temporal cluster editing.

The exports below load on first use (PEP 562), so ``import layeredit``
loads no submodule and a command loads only the solver it runs.
"""

import importlib
import sys
import types

# export name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "core": ("MLCE", "TCE", "CapabilityError", "InputError", "Instance", "LayerGraph",
             "SearchStats", "Solution", "VerifyReport", "apply_edits", "find_p3",
             "is_cluster_graph", "layer_from_edges", "pair", "replace", "verify"),
    "branching": ("Constraint", "solve_mlce"),
    "kernelize": ("KernelResult", "kernelize"),
    "oracle": ("oracle_mlce", "oracle_tce", "structured_mlce"),
    "tcepath": ("enumerate_cluster_editing_sets", "solve_tce_xp"),
    "twolayer": ("max_weight_matching", "solve_two_layer_zero_edit"),
    "fileio": ("Formula223", "ParseError", "PlantedParams", "generate_planted",
               "generate_sat_reduction", "parse_instance", "parse_solution",
               "serialize_instance", "serialize_solution"),
}.items() for name in names}
# submodules that ``from layeredit import *`` binds too
_SUBMODULES = ("branching", "core", "fileio", "oracle", "tcepath", "twolayer")

# ``replace`` is exported but not star-imported: its name is too generic
__all__ = sorted({*_EXPORTS, *_SUBMODULES} - {"replace"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})


class _Package(types.ModuleType):
    """Keeps ``layeredit.kernelize`` the function: the import system binds
    each submodule it loads on the package, and the ``kernelize`` submodule
    shares the function's name."""

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
