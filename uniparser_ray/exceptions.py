"""Engine exceptions (reference: uniparser/exceptions.py)."""


class UniparserRayError(Exception):
    pass


class UnknownParserNameError(UniparserRayError):
    """A chain rule referenced a parser name not in the registry."""


class InvalidSchemaError(UniparserRayError):
    """A ``__schema__`` rule did not evaluate to True."""


class RuleNotFoundError(UniparserRayError):
    """No CrawlerRule matched a given URL."""

