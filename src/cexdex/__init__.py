"""CEX-DEX arbitrage analytics: detection, markout revenue, execution
horizons, trade economics, market structure, and builder profitability."""

from .config import MarkoutGrid, PipelineConfig, load_config
from .detect import ArbTrade, DetectionVerdict, detect_all
from .errors import PipelineError
from .markout import MarkoutTable, markout_curve
from .horizon import SearcherProfile, build_profile
from .estimate import TradeEconomics, trade_economics
from .quotes import QuoteStore

__version__ = "0.1.0"

__all__ = [
    "ArbTrade",
    "DetectionVerdict",
    "MarkoutGrid",
    "MarkoutTable",
    "PipelineConfig",
    "PipelineError",
    "QuoteStore",
    "SearcherProfile",
    "TradeEconomics",
    "__version__",
    "build_profile",
    "detect_all",
    "load_config",
    "markout_curve",
    "trade_economics",
]
