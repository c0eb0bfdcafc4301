"""Numerical toolkit for anomalous diffusion by subordination.

Explicit stable and generalized gamma laws, their multiplicative-convolution
calculus, fractional operators of Riemann-Liouville and Caputo type, Mellin
and H-function machinery, series and subordination solvers, and exact-sampler
Monte Carlo verification.
"""

from .errors import (
    ConvergenceError,
    DivergentTailError,
    DomainError,
    PoleError,
    StripError,
    UnsupportedMethodError,
)
from .frac_calc import GridFunction, PowerLaw, caputo, frac_integral, rl_left, rl_right
from .laws import (
    GGLaw,
    MuVector,
    TimeStretch,
    compose_density,
    compose_fox,
    compose_invariance_gap,
    compose_mellin,
    econv,
    f_nu_beta,
    f_nu_beta_fox,
    gconv,
    gg_density,
    gg_fox,
    gg_mellin,
    h_density,
    h_fox,
    h_mellin,
    index_set,
    l_density,
    l_fox,
    l_mellin,
    ratio_density,
    space_fractional_density,
    space_fractional_fox,
    space_fractional_mellin,
    tabulate_density,
    time_fractional_fox,
    time_fractional_solution,
)
from .mellin import (
    FoxH,
    MellinStrip,
    fox_h_eval,
    fox_h_mellin,
    fox_h_series,
    fox_power,
    fox_product,
    mellin_convolve,
    mellin_inverse,
    mellin_numeric,
)
from .montecarlo import (
    CompositionChain,
    RngSpec,
    ks_distance,
    ks_two_sample,
    moment_scaling_slope,
    sample_chain,
    sample_gamma,
    sample_inv_gamma,
    sample_inverse_subordinator,
    sample_subordinator,
)
from .solvers import (
    BVPSpec,
    EigenSystem,
    adjoint_generator_apply,
    double_laplace_residual,
    eigen_system,
    fractional_power_operator,
    generator_apply,
    project_coefficients,
    sturm_liouville_solution,
)
from .specfun import (
    MLParams,
    bessel_i,
    bessel_j,
    bessel_j_zeros,
    bessel_k,
    beta_fn,
    gamma_fn,
    mittag_leffler,
    wright_w,
)

__version__ = "0.1.0"
