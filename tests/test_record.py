"""The simulator's records: frozen, slotted dataclasses with a direct
``__init__`` (``repro.record.record``).

Every type the helper declares behaves as the plain
``@dataclass(frozen=True)`` it replaced: equality, hashing and repr
match a twin declared that way, assignment raises, ``__post_init__``
still validates, and pickling, copying, ``replace`` and ``asdict``
round-trip.  The helper refuses fields its initializer cannot store as
passed.
"""

import copy
import dataclasses
import math
import pickle

import pytest

from repro.has.abr import AbrState
from repro.has.buffer import PlayEvent, Stall
from repro.has.player import ConnectionMeta
from repro.net.impairments import TransferSpec
from repro.net.tcp import TcpParams, Transfer
from repro.record import record
from repro.tlsproxy.records import HttpTransaction, ResourceType, TlsTransaction

#: One valid instance's arguments per record type.
EXAMPLES = {
    Transfer: dict(
        connection_id=3, start=1.0, response_start=1.05, end=2.0, request_bytes=400,
        response_bytes=50_000, n_packets_down=35, n_packets_up=18, n_retransmits=1,
        rtt_s=0.05,
    ),
    HttpTransaction: dict(
        start=1.0, end=2.0, request_bytes=400, response_bytes=50_000,
        host="edge1.svc1.example", resource_type=ResourceType.VIDEO_SEGMENT,
        quality_index=3,
    ),
    TransferSpec: dict(
        start=1.0, response_start=1.05, end=2.0, nbytes=50_000, n_packets_down=35,
        n_packets_up=1, mss_bytes=1460, rtt_s=0.05, payload_rate=1.2e6,
    ),
    PlayEvent: dict(start=4.0, end=8.0, quality=2),
    Stall: dict(start=8.0, end=9.5),
    AbrState: dict(
        buffer_level_s=12.0, throughput_bps=None, last_quality=None, buffer_capacity_s=60.0
    ),
    TcpParams: dict(rtt_s=0.08, loss_rate=0.01, mss_bytes=1400, tls_handshake_rtts=2.0),
    ConnectionMeta: dict(connection_id=7, host="api.svc1.example", opened_at=0.5, rtt_s=0.05),
    TlsTransaction: dict(
        start=1.0, end=30.0, uplink_bytes=2_000, downlink_bytes=900_000,
        sni="edge1.svc1.example",
    ),
}
TYPES = list(EXAMPLES)
IDS = [cls.__name__ for cls in TYPES]


def twin(cls):
    """``cls`` declared as a plain ``@dataclass(frozen=True)``: the same
    name, fields, defaults and ``__post_init__``."""
    fields = dataclasses.fields(cls)
    namespace = {
        "__annotations__": {f.name: f.type for f in fields},
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    for f in fields:
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def other(cls, kwargs):
    """The same arguments with the first field moved (still valid)."""
    first = dataclasses.fields(cls)[0].name
    value = kwargs[first]
    return {**kwargs, first: value + 1 if value is not None else 1.0}


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
class TestRecordTypes:
    def test_is_a_frozen_slotted_dataclass(self, cls):
        params = cls.__dataclass_params__
        assert params.frozen and params.eq
        assert "__slots__" in cls.__dict__
        assert not hasattr(cls(**EXAMPLES[cls]), "__dict__")

    def test_equality_hash_and_repr_match_a_plain_frozen_dataclass(self, cls):
        plain = twin(cls)
        kwargs = EXAMPLES[cls]
        a, b, c = cls(**kwargs), cls(**kwargs), cls(**other(cls, kwargs))
        pa, pb, pc = plain(**kwargs), plain(**kwargs), plain(**other(cls, kwargs))
        assert (a == b, a == c, a != c) == (pa == pb, pa == pc, pa != pc) == (True, False, True)
        assert (hash(a), hash(c)) == (hash(pa), hash(pc))
        assert (repr(a), repr(c)) == (repr(pa), repr(pc))
        assert dataclasses.astuple(a) == dataclasses.astuple(pa)

    def test_positional_and_keyword_construction_agree(self, cls):
        kwargs = EXAMPLES[cls]
        assert cls(*kwargs.values()) == cls(**kwargs)
        with pytest.raises(TypeError):
            cls(**kwargs, unknown=1)
        with pytest.raises(TypeError):
            cls(*kwargs.values(), 1)

    def test_assignment_raises(self, cls):
        obj = cls(**EXAMPLES[cls])
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1

    def test_pickle_copy_replace_and_asdict_round_trip(self, cls):
        kwargs = EXAMPLES[cls]
        obj = cls(**kwargs)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert back == obj and type(back) is cls
        assert copy.deepcopy(obj) == obj and copy.copy(obj) == obj
        assert dataclasses.asdict(obj) == kwargs
        assert cls(**dataclasses.asdict(obj)) == obj
        moved = other(cls, kwargs)
        first = dataclasses.fields(cls)[0].name
        assert dataclasses.replace(obj, **{first: moved[first]}) == cls(**moved)


@pytest.mark.parametrize(
    "cls, changes, message",
    [
        (TlsTransaction, dict(start=math.nan), "start must be finite"),
        (TlsTransaction, dict(end=0.5), "ends before it starts"),
        (TlsTransaction, dict(downlink_bytes=-1), "non-negative"),
        (HttpTransaction, dict(end=0.5), "ends before it starts"),
        (HttpTransaction, dict(request_bytes=-1), "non-negative"),
        (PlayEvent, dict(end=3.0), "ends before it starts"),
        (PlayEvent, dict(quality=-1), "non-negative"),
        (Stall, dict(end=7.0), "ends before it starts"),
        (TcpParams, dict(rtt_s=0.0), "rtt_s must be positive"),
        (TcpParams, dict(rtt_s=-0.05), "rtt_s must be positive"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_post_init_still_rejects_bad_input(cls, changes, message):
    with pytest.raises(ValueError, match=message):
        cls(**{**EXAMPLES[cls], **changes})
    # ... whichever way the arguments are passed.
    with pytest.raises(ValueError, match=message):
        cls(*{**EXAMPLES[cls], **changes}.values())


def test_defaults_are_kept():
    kwargs = dict(EXAMPLES[HttpTransaction])
    del kwargs["quality_index"]
    assert HttpTransaction(**kwargs).quality_index == -1
    assert HttpTransaction(*kwargs.values()).quality_index == -1
    assert TcpParams() == TcpParams(0.05, 0.005, 1460, 1.0)


class TestRefusedFields:
    def test_default_factory(self):
        with pytest.raises(TypeError, match="default_factory"):

            @record
            class Bad:
                a: int
                b: list = dataclasses.field(default_factory=list)

    def test_init_false(self):
        with pytest.raises(TypeError, match="set by __init__"):

            @record
            class Bad:
                a: int
                b: int = dataclasses.field(default=0, init=False)

    def test_kw_only(self):
        with pytest.raises(TypeError, match="keyword-only"):

            @record
            class Bad:
                a: int
                b: int = dataclasses.field(default=0, kw_only=True)

        with pytest.raises(TypeError, match="keyword-only"):

            @record
            class AlsoBad:
                a: int
                _: dataclasses.KW_ONLY
                b: int

    def test_init_var(self):
        with pytest.raises(TypeError, match="InitVar"):

            @record
            class Bad:
                a: int
                b: dataclasses.InitVar[int]

                def __post_init__(self, b):
                    pass
