"""The package's one error base class, and the one rule that reads an enum
member from its spelling."""


class CausalBootError(ValueError):
    """Bad input to the package.  ``exit_code`` is the command line's exit
    status for it: 1 bad input, 2 an unusable experiment definition, 3 a
    zero-support estimation failure."""

    exit_code = 1


def _member(cls, value, error: type[CausalBootError], what: str):
    """The member of enum ``cls`` that ``value`` is or names by value or
    by name, with outer blanks, case, '-' and '_' ignored; anything else
    raises ``error`` saying the ``what`` is unknown."""
    for member in cls:
        if value is member or _key(value) in (_key(member.value), _key(member.name)):
            return member
    raise error(f"unknown {what} {value!r}")


def _key(text) -> str:
    return str(text).strip().lower().replace("-", "").replace("_", "")
