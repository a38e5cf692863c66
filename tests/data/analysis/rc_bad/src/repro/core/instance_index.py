"""Fixture: the module the registry-conformance imports resolve against."""


def intern_pattern(events, triples):
    return (events, triples)
