"""Base class of the package's input errors."""

from __future__ import annotations


class CodedError(ValueError):
    """Invalid input or a failed structural assumption.  The code attribute
    names the violated rule; the command line prints it as error: [code]."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
