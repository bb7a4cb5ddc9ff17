"""Shared error types."""


class CapExceededError(RuntimeError):
    """A brute-force enumeration would exceed its configured cap.

    Enumerations are exact or absent: exceeding a cap is an error, never a
    silent truncation.  The exception names the cap that would be required
    so the caller can rerun with a larger one.
    """

    def __init__(self, what: str, required: int, cap: int):
        super().__init__(
            f"{what} needs {required} enumerated items but the cap is {cap}; "
            f"rerun with a cap of at least {required}"
        )
        self.what = what
        self.required = required
        self.cap = cap


class VerificationError(ValueError):
    """An independent re-check of a computed result failed.

    The input was valid; the result is wrong.  The command line reports it
    as a failed check (exit 1), not as a usage error.
    """
