import pickle

from kerrsim import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_kerrsim_error_survives_pickling():
    # a failure raised in a worker process reaches its caller as the same error
    kinds = [errors.KerrsimError, *_subclasses(errors.KerrsimError)]
    assert errors.StageError in kinds and len(kinds) == 7
    for kind in kinds:
        exc = kind("bin", "boom") if issubclass(kind, errors.StageError) else kind("boom")
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is kind
        assert str(again) == str(exc)
        assert getattr(again, "stage", None) == getattr(exc, "stage", None)
