"""The tolerance and seed parameters of the public API, each with the caller that sets it.

A threshold that no caller sets is a fixed value, kept where it is used;
only the parameters below remain options.  The walk covers every name in
each module's ``__all__`` and, for exported classes, their constructors
and public methods.
"""

import importlib
import inspect

MODULES = ("series", "eigen", "localforms", "bundles", "synth", "verify", "documents")
KNOB_NAMES = ("seed", "radius_factor", "resonance_sval", "cond_threshold")

# (module, callable, parameter) -> what sets it to something other than its default
EXPECTED = {
    ("eigen", "norm_log", "tol"): "CLI normlog --tol",
    ("eigen", "log_branches", "tol"): "norm_log passes its tol",
    ("eigen", "floor_snap", "tol"): "normal_form passes its tol; growth_exponent a derived one",
    ("localforms", "normal_form", "tol"): "CLI normal-form --tol",
    ("localforms", "fundamental_check", "tol"): "tests at 1e-13 (to be derived, ROADMAP item 4)",
    ("bundles", "Representation.__init__", "tol"): "decode_representation",
    ("bundles", "invariant_subspaces", "seed"): "semistable and rank3_decide pass their seed",
    ("bundles", "semistable", "seed"): "CLI semistable --seed",
    ("synth", "commutative_fuchsian", "tol"): "CLI synth-commutative --tol",
    ("synth", "bq_frame", "tol"): "CLI bq-frame --tol",
    ("synth", "rank3_decide", "seed"): "CLI decide-rank3 --seed",
    ("verify", "monodromy_report", "tol"): "CLI verify --tol",
    ("verify", "conjugacy_compare", "tol"): "monodromy_report passes max(1e-8, 10 tol)",
    ("documents", "decode_representation", "tol"): "CLI synth-commutative --tol",
}


def _callables(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(obj):
            yield name, obj


def _knobs():
    found = set()
    for mod_name in MODULES:
        module = importlib.import_module(f"logconn.{mod_name}")
        for qualname, fn in _callables(module):
            for param in inspect.signature(fn).parameters:
                if "tol" in param or param in KNOB_NAMES:
                    found.add((mod_name, qualname, param))
    return found


def test_every_tolerance_and_seed_parameter_has_a_caller_that_sets_it():
    found = _knobs()
    assert found - EXPECTED.keys() == set(), "parameters no caller sets: make them fixed values"
    assert EXPECTED.keys() - found == set(), "expected parameters missing from the walk"



def test_all_lists_every_public_function_and_class():
    # the walk above reads __all__, so a public name missing from it
    # would escape the table
    for mod_name in MODULES:
        module = importlib.import_module(f"logconn.{mod_name}")
        public = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert public - set(module.__all__) == set(), f"{mod_name}: public names missing from __all__"
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], f"{mod_name}: unresolved"
