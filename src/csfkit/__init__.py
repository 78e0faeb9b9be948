"""csfkit: exact e-expansions of chromatic symmetric functions.

Closed-form composition-indexed expansions for paths, cycles, tadpoles,
cycle-chords, theta graphs and clocks, a frontier power-sum oracle to
verify them against (with the edge-subset sum as its cross-check), and
exhaustive sweeps for the structural facts the formulas rest on.  All
arithmetic is exact.

Each public name is loaded from its module on first access (PEP 562), so
``import csfkit`` imports no submodule.  Names are looked up on every access
rather than stored here, so ``csfkit.X is csfkit.<module>.X`` always holds.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "compositions": "Composition Partition compositions_of format_parts parse_composition "
    "weight_positive_compositions",
    "coefficients": "Classification PSQTSolution WClass classify coeff_c coeff_c_doubleprime "
    "coeff_c_prime coeff_D delta fiber phi psi solve_ps solve_psqt solve_qt split_LR",
    "errors": "ResourceLimitError",
    "graphs": "EExpansion Graph PositivityReport build_clock build_cycle build_cycle_chord "
    "build_family_graph build_path build_tadpole build_theta closed_form_clock "
    "closed_form_cycle closed_form_cycle_chord closed_form_path closed_form_tadpole "
    "closed_form_theta csf_pbasis csf_pbasis_subsets e_positivity_report "
    "expansion_closed_form verify_triple_deletion",
    "symfunc": "Basis BasisVector e_partition_to_p evector_to_p first_difference pvector_to_e",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
