"""The package's one error base class."""


class CausalBootError(ValueError):
    """Bad input to the package.  ``exit_code`` is the command line's exit
    status for it: 1 bad input, 2 an unusable experiment definition, 3 a
    zero-support estimation failure."""

    exit_code = 1
