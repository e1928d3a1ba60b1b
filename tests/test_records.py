"""The package's value types: construction, validation, equality, hashing,
immutability and repr, as the frozen dataclasses they replace had them."""

import copy
import pickle
import re

import pytest

from partition_diamonds.congruences import (ClaimReport, CongruenceClaim,
                                            Witness)
from partition_diamonds.omega import OmegaInstance
from partition_diamonds.series import ZZ, Record, RingSpec, TruncatedSeries

CLAIM = CongruenceClaim(4, 1, 5, 2, modulus=5, label="mod5_4k1_r2")

# (positional instance, the same built by keyword, its dataclass repr)
INSTANCES = [
    (RingSpec(5), RingSpec(modulus=5), "Zmod(5)"),
    (ZZ, RingSpec(modulus=None), "ZZ"),
    (TruncatedSeries(ZZ, (1, 2)), TruncatedSeries(ring=ZZ, coeffs=(1, 2)),
     "TruncatedSeries(ring=ZZ, coeffs=(1, 2))"),
    (OmegaInstance(1, 2, (1, 2), 3),
     OmegaInstance(j=1, d=2, x_exponents=(1, 2), y_exponent=3),
     "OmegaInstance(j=1, d=2, x_exponents=(1, 2), y_exponent=3)"),
    (CongruenceClaim(4, 1, 5, 2, 5, False, False, "mod5_4k1_r2"),
     CongruenceClaim(d_stride=4, d_offset=1, prog_modulus=5, residue=2,
                     modulus=5, label="mod5_4k1_r2"),
     "CongruenceClaim(d_stride=4, d_offset=1, prog_modulus=5, residue=2, "
     "modulus=5, power_of_two_in_d=False, conjectural=False, "
     "label='mod5_4k1_r2')"),
    (ClaimReport(CLAIM, 2, 40, "counterexample", Witness(5, 7, 3)),
     ClaimReport(claim=CLAIM, k_max=2, n_max=40, status="counterexample",
                 witness=Witness(d=5, index=7, value=3)),
     "ClaimReport(claim=" + repr(CLAIM) + ", k_max=2, n_max=40, "
     "status='counterexample', witness=Witness(d=5, index=7, value=3))"),
]
IDS = [type(pos).__name__ for pos, _, _ in INSTANCES]


@pytest.mark.parametrize("pos, kw, text", INSTANCES, ids=IDS)
def test_positional_and_keyword_construction_agree(pos, kw, text):
    assert pos == kw
    assert not pos != kw
    assert hash(pos) == hash(kw)
    assert repr(pos) == repr(kw) == text


def test_defaults():
    assert RingSpec().modulus is None
    assert RingSpec() == ZZ
    claim = CongruenceClaim(1, 1, 2, 1, power_of_two_in_d=True)
    assert (claim.modulus, claim.conjectural, claim.label) == (None, False, "")
    assert ClaimReport(CLAIM, 1, 2, "verified_up_to_bounds").witness is None


@pytest.mark.parametrize("pos, kw, text", INSTANCES, ids=IDS)
def test_no_equality_with_another_class_or_a_tuple(pos, kw, text):
    fields = tuple(getattr(pos, name) for name in type(pos).__slots__)
    assert pos != fields
    assert pos != fields[0]
    assert pos != object()
    others = [other for other, _, _ in INSTANCES
              if type(other) is not type(pos)]
    assert all(pos != other for other in others)


def test_unequal_fields_compare_unequal():
    assert RingSpec(5) != RingSpec(7) and RingSpec(5) != ZZ
    assert CLAIM != CongruenceClaim(4, 1, 5, 2, modulus=5)
    assert TruncatedSeries(ZZ, (1, 2)) != \
        TruncatedSeries(RingSpec(5), (1, 2))
    assert len({RingSpec(5), RingSpec(5), ZZ, RingSpec()}) == 2


@pytest.mark.parametrize("pos, kw, text", INSTANCES, ids=IDS)
def test_immutable(pos, kw, text):
    name = type(pos).__slots__[0]
    before = getattr(pos, name)
    with pytest.raises(AttributeError):
        setattr(pos, name, before)
    with pytest.raises(AttributeError):
        delattr(pos, name)
    with pytest.raises(AttributeError):
        pos.extra = 1
    assert getattr(pos, name) is before


@pytest.mark.parametrize("pos, kw, text", INSTANCES, ids=IDS)
def test_copy_and_pickle_round_trip(pos, kw, text):
    for clone in (copy.copy(pos), copy.deepcopy(pos),
                  pickle.loads(pickle.dumps(pos))):
        assert type(clone) is type(pos)
        assert clone == pos and hash(clone) == hash(pos)


VALIDATION = [
    (lambda: RingSpec(1), "modulus must be >= 2, got 1"),
    (lambda: RingSpec(1 << 64),
     f"modulus must fit in 64 bits, got {1 << 64}"),
    (lambda: TruncatedSeries(ZZ, ()), "series order must be >= 1"),
    (lambda: OmegaInstance(0, 0, (), 1), "d must be >= 1"),
    (lambda: OmegaInstance(0, 2, (1,), 1), "need exactly d x-exponents"),
    (lambda: OmegaInstance(0, 1, (0,), 1), "x exponents must be >= 1"),
    (lambda: OmegaInstance(0, 1, (1,), 0), "y exponent must be >= 1"),
    (lambda: CongruenceClaim(-1, 1, 5, 2, modulus=5),
     "d stride must be >= 0"),
    (lambda: CongruenceClaim(4, 0, 5, 2, modulus=5), "d offset must be >= 1"),
    (lambda: CongruenceClaim(4, 1, 0, 0, modulus=5),
     "progression modulus must be >= 1"),
    (lambda: CongruenceClaim(4, 1, 5, 5, modulus=5),
     "residue must lie in [0, prog_modulus)"),
    (lambda: CongruenceClaim(1, 1, 2, 1, modulus=4, power_of_two_in_d=True),
     "power-of-two claims derive m from d"),
    (lambda: CongruenceClaim(4, 1, 5, 2), "fixed modulus must be >= 2"),
]
# a claim reports its modulus with the ring's message, so its case needs an
# id apart from RingSpec(1 << 64)'s
CLAIM_RING_WIDTH = (lambda: CongruenceClaim(4, 1, 5, 2, modulus=1 << 64),
                    f"modulus must fit in 64 bits, got {1 << 64}")


@pytest.mark.parametrize("make, message", [*VALIDATION, CLAIM_RING_WIDTH],
                         ids=[*(m for _, m in VALIDATION),
                              "claim modulus must fit in 64 bits"])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make()


def test_record_takes_one_value_per_field():
    class Pair(Record):
        __slots__ = ("a", "b")

    assert Pair(1, 2) == Pair(1, 2)
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Pair(*values)


def test_post_init_runs_once_per_series(monkeypatch):
    calls = []
    original = TruncatedSeries.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(TruncatedSeries, "__post_init__", counted)
    a = TruncatedSeries(ZZ, (1, 1, 0))
    assert calls == [a]
    b = TruncatedSeries.from_coeffs([1, -1], order=3)
    c = a * b
    assert calls == [a, b, c]
    assert c == TruncatedSeries(ZZ, (1, 0, -1))
    assert len(calls) == 4
    with pytest.raises(ValueError):
        TruncatedSeries(ZZ, ())
    assert len(calls) == 5
