"""lomaxmix: finite mixtures of discrete Lomax distributions for heavy-tailed counts.

Fit mixture models to count data by maximum likelihood, select the model
order by AIC, test goodness of fit with Pearson's chi-square, compare
against power-law and lognormal baselines, and draw synthetic counts
from a fitted model.
"""

from types import ModuleType as _ModuleType

from .distributions import (
    LomaxComponent,
    MixtureModel,
    RankModel,
    mixture_ccdf,
    mixture_log_pmf,
    mixture_pmf,
    rank_frequency,
)
from .errors import (
    DegenerateDataError,
    DomainError,
    FitError,
    InputFormatError,
    InsufficientResolutionError,
    LomaxMixError,
    ValidationError,
)
from .fitting import (
    BaselineResult,
    CountSample,
    FitConfig,
    FitResult,
    ScanResult,
    aic,
    fit_lognormal,
    fit_mixture,
    fit_power_law,
    log_likelihood,
    n_params_for_order,
    scan_orders,
)
from .gof import GofBin, GofReport, chi_square_test, empirical_ccdf
from .ingest import (
    MessageEvent,
    ReplyDelaySample,
    discretize,
    extract_reply_delays,
    load_counts,
    parse_message_log,
    save_counts,
)
from .simulate import sample_mixture

__version__ = "0.1.0"

# every name imported above, and the version
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
