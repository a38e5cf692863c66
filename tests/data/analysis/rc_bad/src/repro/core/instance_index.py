"""Fixture: the module the export-conformance imports resolve against."""


def intern_pattern(events, triples):
    return (events, triples)
