"""Exception types shared across the pipeline.

Loader errors carry enough context (row index, file, field) to point at the
offending input line; computation errors signal exclusion or misuse and are
caught by the stage drivers rather than aborting a whole run.
"""


class PipelineError(Exception):
    """Base class for all cexdex errors."""


# --- ingestion ---

class MissingColumn(PipelineError):
    def __init__(self, column: str, path: str = ""):
        self.column = column
        self.path = path
        super().__init__(f"missing column {column!r}" + (f" in {path}" if path else ""))


class MalformedRow(PipelineError):
    def __init__(self, row_index: int, reason: str = ""):
        self.row_index = row_index
        self.reason = reason
        super().__init__(f"malformed row {row_index}" + (f": {reason}" if reason else ""))


class NonMonotonicSlotTime(PipelineError):
    pass


class CrossedQuote(PipelineError):
    def __init__(self, row_index: int):
        self.row_index = row_index
        super().__init__(f"crossed quote (ask < bid) at row {row_index}")


class DuplicateTimestamp(PipelineError):
    def __init__(self, symbol: str, ts_ms: int):
        self.symbol = symbol
        self.ts_ms = ts_ms
        super().__init__(f"duplicate timestamp {ts_ms} for {symbol}")


class DuplicateBlock(PipelineError):
    def __init__(self, block_number: int):
        self.block_number = block_number
        super().__init__(f"duplicate block {block_number}")


class InvalidConfig(PipelineError):
    pass


# --- quote lookup ---

class NoQuoteBefore(PipelineError):
    def __init__(self, t_ms: int):
        self.t_ms = t_ms
        super().__init__(f"no quote at or before t={t_ms}")


class StaleQuote(PipelineError):
    def __init__(self, gap_ms: int):
        self.gap_ms = gap_ms
        super().__init__(f"latest quote is {gap_ms} ms old")


class UnlistedToken(PipelineError):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"token {token} is not CEX-listed")


class UnknownToken(PipelineError):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"token {token} not in registry")


# --- detection ---

class NotTwoSided(PipelineError):
    """Net flows do not reduce to exactly one bought and one sold token."""


# --- markout / economics ---

class PatternThreeExcluded(PipelineError):
    pass


# --- horizon ---

class NoTrades(PipelineError):
    pass


class PeakNonPositive(PipelineError):
    pass


class OutOfGrid(PipelineError):
    pass


# --- statistics ---

class LengthMismatch(PipelineError):
    pass


class TooShort(PipelineError):
    pass


class DegenerateRanks(PipelineError):
    """All ranks tied in one series; Spearman's rho is undefined."""


class SharesDontSumToOne(PipelineError):
    pass


class ZeroDenominator(PipelineError):
    pass


# --- synth / scoring ---

class MissingOutputs(PipelineError):
    def __init__(self, what: str):
        super().__init__(f"missing pipeline output: {what}")
