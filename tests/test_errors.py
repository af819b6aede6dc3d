"""The package's errors survive pickling, as a trial process's errors must."""

import pickle

import pytest

from scclab import errors


@pytest.mark.parametrize("name", errors.__all__)
def test_pickle_round_trip(name):
    cls = getattr(errors, name)
    if issubclass(cls, errors.SingularityError):
        error = cls("block is singular", 1e-13)
    elif issubclass(cls, errors.NumericalError):
        error = cls("residual too large", achieved=0.5)
    else:
        error = cls("constraint violated")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    for attr in ("achieved", "min_eigenvalue"):
        assert getattr(copy, attr, None) == getattr(error, attr, None)
