"""Every record class behaves as the frozen dataclass it replaced.

Each class is compared with a reference: a subclass that declares the
same fields, in the same order and with the same defaults, and gets its
``__init__``, equality, hash, repr and frozenness from
``@dataclass(frozen=True)``, while keeping the record's
``__post_init__``, methods and cached properties.
"""

import dataclasses
from fractions import Fraction

import pytest

from spacelab import (ValidationError, detect, dynamics, experiments,
                      language, psets)
from spacelab.errors import Record, replace
from spacelab.language import Configuration
from spacelab.psets import Multiples, Squares

# one valid argument tuple for every record class
EXAMPLES = {
    psets.Explicit: ([1, 4],),
    psets.Multiples: (3,),
    psets.Squares: (),
    psets.FiniteSums: ((1, 2, 5),),
    psets.DeltaOf: ((1, 3, 7),),
    psets.DiffSet: ((2, 5, 11),),
    psets.Bohr: (0.5, (0.1, 0.2)),
    psets.Complement: (Multiples(2),),
    psets._Combination: ((Multiples(2),),),
    psets.Union: ([Multiples(2), Squares()],),
    psets.Intersect: ((Multiples(2), Multiples(3)),),
    psets.PSetView: (10, 0b1000101001, "d"),
    psets.DensityReport: (3, 2, (1, 1, 2), Fraction(1, 2), Fraction(2, 3),
                          ((1, Fraction(1)),)),
    language.Configuration: (5, [0, 2]),
    language.ProfileRow: (3, 5, 0.77, 2, Fraction(2, 3)),
    language.LanguageProfile: ("d", ()),
    language.TransitiveGapReport: (3, 2, 10, 9, ("1", "11")),
    detect.StructureWitness: ("delta_chain", (1, 2), True),
    detect.SyndeticGapReport: (3, 1),
    detect.BohrAvoidanceReport: (0.5, (0.1, 0.2), 4, 3, 7, False),
    dynamics.OrbitPoint: (Configuration(3, (1,)), "zero", True, "d"),
    dynamics.FStatReport: (1, "x", "y", ((4, Fraction(1, 2)),),
                           Fraction(1, 2)),
    dynamics.PeriodicCheckResult: (None, 4),
    experiments.ExperimentReport: ("e", {"n": 1}, {}, "consistent", ()),
}

# bases that only share code between record classes
ABSTRACT = {psets.PSetSpec, psets._IncreasingList, psets._Differences}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _reference(cls):
    namespace = {"__annotations__": dict.fromkeys(cls._fields, object),
                 "__qualname__": cls.__qualname__, **cls._defaults}
    return dataclasses.dataclass(frozen=True)(
        type(cls.__name__, (cls,), namespace))


def _outcome(call):
    try:
        return "value", call()
    except Exception as err:  # the type is the outcome compared
        return "raises", type(err)


def test_every_record_class_has_an_example():
    package = {cls for cls in _subclasses(Record)
               if cls.__module__.startswith("spacelab.")}
    assert set(EXAMPLES) == package - ABSTRACT
    assert len(EXAMPLES) == 24


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
def test_record_matches_a_frozen_dataclass(cls):
    ref_cls = _reference(cls)
    args = EXAMPLES[cls]
    fields = cls._fields
    rec, ref = cls(*args), ref_cls(*args)

    # fields (after __post_init__), their order, repr and hash
    assert list(vars(rec).items()) == list(vars(ref).items())
    assert repr(rec) == repr(ref)
    assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(ref))

    # keyword construction, equality within one class only
    by_name = dict(zip(fields, args))
    assert cls(**by_name) == rec and not cls(**by_name) != rec
    assert ref_cls(**by_name) == ref
    assert rec != ref and ref != rec
    assert (rec == object()) is (ref == object()) is False
    if fields:
        change = {fields[-1]: ()}
        other = replace(rec, **change)
        ref_other = dataclasses.replace(ref, **change)
        assert list(vars(other).items()) == list(vars(ref_other).items())
        assert (other == rec) is (ref_other == ref)

    # frozen
    for target in (rec, ref):
        with pytest.raises(AttributeError):
            setattr(target, fields[0] if fields else "x", 1)
        with pytest.raises(AttributeError):
            target.x = 1
        if fields:
            with pytest.raises(AttributeError):
                delattr(target, fields[0])

    # defaults, and a missing, unknown or repeated argument
    required = len(fields) - len(cls._defaults)
    calls = [
        lambda c: c(*args[:required]),
        lambda c: c(*args[:-1]),
        lambda c: c(*args, 0),
        lambda c: c(*args, unknown=0),
        lambda c: c(**{**by_name, "unknown": 0}),
    ]
    if fields:
        calls.append(lambda c: c(*args, **{fields[0]: args[0]}))
        calls.append(lambda c: c(**{k: v for k, v in by_name.items()
                                    if k != fields[0]}))
    for call in calls:
        got = _outcome(lambda: call(cls))
        want = _outcome(lambda: call(ref_cls))
        assert got[0] == want[0]
        if got[0] == "value":
            assert vars(got[1]) == vars(want[1])
        else:
            assert got[1] is want[1] is TypeError


def test_post_init_checks_and_coerces():
    for cls in (Configuration, _reference(Configuration)):
        assert cls(4, [0, 3]).ones == (0, 3)
        for bad in ((2, (3,)), (4, (2, 1))):
            with pytest.raises(ValidationError):
                cls(*bad)
    for cls in (psets.Explicit, _reference(psets.Explicit)):
        assert cls([2, 5]).elems == (2, 5)


def test_cached_properties_match_and_stay_out_of_the_fields():
    config = Configuration(7, (0, 2, 5))
    ref = _reference(Configuration)(config.length, config.ones)
    before = hash(config)
    assert config.ones_mask == ref.ones_mask
    assert config.ones_mask is config.ones_mask
    assert hash(config) == before
    assert repr(config) == repr(ref)
    assert config == Configuration(config.length, config.ones)


def test_replace_builds_through_the_class():
    config = Configuration(5, (0, 2))
    assert replace(config, ones=[1, 3]) == Configuration(5, (1, 3))
    with pytest.raises(ValidationError):
        replace(config, length=2)
    with pytest.raises(TypeError):
        replace(config, width=2)
