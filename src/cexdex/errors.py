"""Exception types shared across the pipeline.

Loader errors carry enough context (row index, file, field) to point at the
offending input line. A stage's own outcomes, such as a time without a fresh
quote, a decline window that leaves the grid or a correlation that is
undefined, are return values, not errors.
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
    def __init__(self, row_index: int, reason: str = "", file: str = ""):
        self.row_index = row_index
        self.reason = reason
        self.file = file
        super().__init__(f"malformed row {row_index}" + (f" of {file}" if file else "")
                         + (f": {reason}" if reason else ""))


class NonMonotonicSlotTime(PipelineError):
    pass


class CrossedQuote(PipelineError):
    def __init__(self, row_index: int, file: str = ""):
        self.row_index = row_index
        self.file = file
        super().__init__(f"crossed quote (ask < bid) at row {row_index}"
                         + (f" of {file}" if file else ""))


class DuplicateTimestamp(PipelineError):
    def __init__(self, symbol: str, ts_ms: int, file: str = ""):
        self.symbol = symbol
        self.ts_ms = ts_ms
        self.file = file
        super().__init__(f"duplicate timestamp {ts_ms} for {symbol}"
                         + (f" in {file}" if file else ""))


class DuplicateBlock(PipelineError):
    def __init__(self, block_number: int, file: str = ""):
        self.block_number = block_number
        self.file = file
        super().__init__(f"duplicate block {block_number}" + (f" in {file}" if file else ""))


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


class UnknownToken(PipelineError):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"token {token} not in registry")


# --- synth / scoring ---

class MissingOutputs(PipelineError):
    def __init__(self, what: str):
        super().__init__(f"missing pipeline output: {what}")
