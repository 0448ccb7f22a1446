"""Shared exception type carrying stable machine-readable error codes."""


class PipelineError(ValueError):
    """Contract violation anywhere in the pipeline.

    ``code`` is a stable kebab-case identifier (for example ``shape-mismatch``
    or ``bad-magic``) that callers and tests can match on without parsing the
    human-readable message.
    """

    def __init__(self, code: str, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}" if message else code)
