"""The package namespace: the numeric names resolve lazily to their homes."""

import pytest

import wreduce
from wreduce import series, verify


def test_lazy_names_resolve_to_their_homes():
    for name, home in wreduce._LAZY.items():
        module = series if home == "series" else verify
        expected = module if name == home else getattr(module, name)
        # through the hook itself, which a cached lookup would skip
        assert wreduce.__getattr__(name) is expected, name
        assert getattr(wreduce, name) is expected, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wreduce.no_such_name
    with pytest.raises(AttributeError):
        wreduce.__getattr__("no_such_name")
