"""Differential conformance subsystem: generative testing of the backend grid.

The paper's core claim (section 1) is that *one* declarative vector
algebra executes identically across materially different backends.  This
package manufactures the evidence at scale instead of enumerating it:

* :mod:`repro.testing.datagen` — seeded adversarial schema/data generator
  (empty tables, single-row groups, skewed/dense/sparse keys, NaN/Inf,
  ε-slot-heavy filters, dictionary-encoded strings);
* :mod:`repro.testing.qgen` — seeded random relational-query generator
  emitting valid :mod:`repro.relational.algebra` plans (nested
  boolean/arithmetic filters, maps, joins, semi-joins, multi-key
  group-bys);
* :mod:`repro.testing.oracle` — an independent NumPy reference
  evaluator: a third opinion that shares *no* execution code with the
  interpreter or the compiled backends;
* :mod:`repro.testing.conformance` — the matrix runner executing every
  generated case across the whole ``ExecutionOptions`` ×
  ``CompilerOptions`` × workers grid and asserting bit-identity
  (``python -m repro.testing.conformance --cases 200 --seed 0``), and
  ``crossover``, which moves the pool crossover for the plans made
  inside it;
* :mod:`repro.testing.serialize` — self-contained JSON case files
  (``cases/``), shrink-friendly and replayable via
  ``python -m repro.testing.replay <case.json>``.
"""

from importlib import import_module

#: public name -> (module, attribute); resolved lazily (PEP 562) so that
#: ``python -m repro.testing.conformance`` does not import the module a
#: second time under a different name before runpy executes it
_EXPORTS = {
    "BACKEND_GRID": ("repro.testing.conformance", "BACKEND_GRID"),
    "BackendConfig": ("repro.testing.conformance", "BackendConfig"),
    "CaseFailure": ("repro.testing.conformance", "CaseFailure"),
    "crossover": ("repro.testing.conformance", "crossover"),
    "run_case": ("repro.testing.conformance", "run_case"),
    "run_conformance": ("repro.testing.conformance", "run_conformance"),
    "generate_case": ("repro.testing.qgen", "generate_case"),
    "Case": ("repro.testing.serialize", "Case"),
    "case_from_json": ("repro.testing.serialize", "case_from_json"),
    "case_to_json": ("repro.testing.serialize", "case_to_json"),
    "load_case": ("repro.testing.serialize", "load_case"),
    "save_case": ("repro.testing.serialize", "save_case"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
