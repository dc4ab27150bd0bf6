"""squashkit: squash-operator construction, verification and QKD simulation.

The package has four layers:

* :mod:`squashkit.symfock` - exact linear algebra on the symmetric
  N-photon subspace (basis states, basis changes, lifted gates, oracle);
* :mod:`squashkit.squash` - the squash channel as its closed-form Choi
  matrix, channel application, and its completeness /
  modulation-covariance checks;
* :mod:`squashkit.povm` - the one effect builder (a block's detector or
  squash effects in both bases, as one stack), the joint block-diagonal
  adversary state (:class:`CompositeBlockState`, also the type of an
  explicit attack), and the detector-vs-squash POVM equivalence;
* :mod:`squashkit.protocol` - exact and Monte Carlo BB84/BBM92 against
  adversarial multi-photon sources (named attack families, or an explicit
  block state), error rates and one-way key rates.  Its names are served
  from this package too, but the module is imported on first use.

The ``squashkit`` console script exposes ``verify``, ``simulate`` and
``keyrate`` subcommands.
"""

from .symfock import (
    Basis,
    OMEGA,
    X_MODULATION,
    sym_basis_state,
    basis_change_matrix,
    lift_gate,
    lift_gate_oracle,
    projector,
)
from .squash import (
    KrausChannel,
    CompletenessReport,
    HadamardReport,
    squash_index_pairs,
    build_squash,
    apply_channel,
    apply_channel_on_bob,
    verify_completeness,
    verify_hadamard_invariance,
)
from .povm import (
    CompositeBlockState,
    PovmEquivalenceReport,
    actual_povm,
    virtual_povm,
    verify_povm_equivalence,
)


def __getattr__(name: str):
    # The names of __all__ not bound above are squashkit.protocol's, which
    # is imported on first use so that verify and --help never load it.
    if name in __all__:
        from . import protocol

        return getattr(protocol, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "Basis",
    "OMEGA",
    "X_MODULATION",
    "sym_basis_state",
    "basis_change_matrix",
    "lift_gate",
    "lift_gate_oracle",
    "projector",
    "KrausChannel",
    "CompletenessReport",
    "HadamardReport",
    "squash_index_pairs",
    "build_squash",
    "apply_channel",
    "apply_channel_on_bob",
    "verify_completeness",
    "verify_hadamard_invariance",
    "CompositeBlockState",
    "PovmEquivalenceReport",
    "actual_povm",
    "virtual_povm",
    "verify_povm_equivalence",
    "Depolarize",
    "InterceptResend",
    "CoincidenceInjection",
    "AttackSpec",
    "attack_from_dict",
    "attack_to_dict",
    "SimResult",
    "bell_state",
    "eve_state",
    "binary_entropy",
    "key_rate",
    "exact_error_rates",
    "exact_sifted_distribution",
    "run_simulation",
    "__version__",
]
