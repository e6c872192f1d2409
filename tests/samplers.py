"""Random draws of valid hyperparameters for property-style loops."""

from ssmopt import OptimizerParams, PresetParams, PsiKind


def random_valid_adamssm_preset(rng) -> PresetParams:
    """A preset satisfying 0 < b2 < b1 < 1, b3 > 0, b2 + b3 < 4*b1."""
    b1 = rng.uniform(0.05, 0.95)
    b2 = rng.uniform(1e-4, b1 * 0.999)
    b3 = rng.uniform(1e-4, max(4.0 * b1 - b2 - 1e-3, 2e-4))
    if not b2 + b3 < 4.0 * b1:
        b3 = (4.0 * b1 - b2) * 0.5
    delta = rng.uniform(0.01, 0.5)
    return PresetParams(b1=b1, b2=b2, b3=b3, delta=delta)


def random_valid_params(rng) -> OptimizerParams:
    """A parameter vector satisfying the full validation chain.

    Draws the bias-corrected shape (lambda7 = 1) half the time and the
    uncorrected shape (lambda7 = 0) otherwise.
    """
    c = rng.uniform(0.05, 0.95)
    if rng.random() < 0.5:
        b1 = rng.uniform(0.05, 0.95)
        b2 = rng.uniform(1e-4, b1 * 0.999)
        b3 = rng.uniform(0.0, 0.5)
        lam1 = lam2 = b1
        lam5 = b2 + b3
        # keep the chain lambda5 < 2*lambda1/c
        if not lam5 < 2.0 * lam1 / 0.5:
            b3 = lam1 / 2.0
            lam5 = b2 + b3
        return OptimizerParams(
            lambda1=lam1, lambda2=lam2, lambda3=b2, lambda4=b3, lambda5=lam5,
            lambda6=b2, lambda7=1.0, lambda8=0.0, c=0.5,
            psi_kind=PsiKind.SQUARED_GRADIENT,
        )
    lam1 = rng.uniform(0.1, 2.0)
    lam5 = rng.uniform(0.0, 2.0 * lam1 / c * 0.99)
    lam4 = rng.uniform(0.0, lam5) if lam5 > 0 else 0.0
    return OptimizerParams(
        lambda1=lam1, lambda2=rng.uniform(0.05, 2.0), lambda3=rng.uniform(0.05, 2.0),
        lambda4=lam4, lambda5=lam5, lambda6=rng.uniform(0.05, 2.0),
        lambda7=0.0, lambda8=rng.uniform(0.1, 2.0), c=c,
        psi_kind=PsiKind.SQUARED_GRADIENT,
    )
