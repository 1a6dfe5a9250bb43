"""The helical pricing kernel against the method kernel, bit for bit.

Both kernels are built over the same plain ``DriveTimingModel`` — the
fitted one or a ``scaled()`` copy — and every operation is drawn on
inputs whose locate distances land on the short/long threshold, on
block boundaries, at the beginning of tape and anywhere in between.
The method kernel, which calls the model's own methods, is the
reference: every float must match its ``.hex()``, and an input either
kernel rejects (an unsorted extension list, a block behind the
envelope, a negative block size) must raise the same exception type in
both.  The tape bound is the one operation that differs by design: the
helical kernel's arrival-span bound is never below the method kernel's
plain-read bound.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import HelicalKernel, MethodKernel, pricing_kernel
from repro.tape import EXB_8505XL, DriveTimingModel
from repro.tape.serpentine import DLT_STYLE

_MODELS = (EXB_8505XL, EXB_8505XL.scaled(2.0), EXB_8505XL.scaled(0.5))


def _hexed(value):
    """Floats as hex, recursively through tuples and lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(_hexed(item) for item in value)
    return value


def _outcome(compute):
    """``compute()``'s result with floats as hex, or the type it raised."""
    try:
        return _hexed(compute())
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error).__name__


@st.composite
def _cases(draw):
    """A model, block size and inputs for every kernel operation."""
    timing = draw(st.sampled_from(_MODELS))
    block_mb = draw(st.sampled_from([0.25, 1.0, 16.0]))
    threshold = timing.short_threshold_mb
    slot = st.integers(0, 300)

    def around(anchor):
        """Positions whose distance from ``anchor``, or from the end of a
        block read there, is zero, one block or the threshold."""
        return st.sampled_from(
            [
                anchor,
                anchor + threshold,
                anchor - threshold,
                anchor + block_mb,
                anchor - block_mb,
                anchor + block_mb + threshold,
                anchor - block_mb - threshold,
                anchor + threshold - block_mb,
            ]
        )

    head_mb = draw(
        st.one_of(
            st.just(0.0),
            slot.map(lambda k: k * block_mb),
            st.floats(0.0, 5000.0),
            st.floats(-100.0, 0.0),
            st.just(1e6),  # past every position: an all-reverse sweep
        )
    )
    position = st.one_of(
        around(head_mb),
        st.just(0.0),
        slot.map(lambda k: k * block_mb),
        slot.map(lambda k: k * block_mb + threshold),
        st.floats(-50.0, 5000.0),
    )
    positions = draw(st.lists(position, max_size=25))
    if positions:
        positions += draw(st.lists(st.sampled_from(positions), max_size=5))
    envelope_mb = draw(
        st.one_of(
            st.just(0.0),
            slot.map(lambda k: k * block_mb),
            st.floats(0.0, 5000.0),
        )
    )
    extension_mb = draw(
        st.one_of(
            around(envelope_mb),
            st.floats(envelope_mb - block_mb, envelope_mb),
            st.floats(envelope_mb, envelope_mb + 5000.0),
            st.floats(envelope_mb - 100.0, envelope_mb - block_mb),
        )
    )
    # The step-3 scan reads candidates at or beyond the envelope, one per
    # request, so a block two requests want appears twice.
    beyond = st.one_of(
        around(envelope_mb).filter(lambda p: p >= envelope_mb),
        slot.map(lambda k: envelope_mb + k * block_mb),
        st.floats(envelope_mb, envelope_mb + 5000.0),
    )
    prefix = sorted(draw(st.lists(beyond, max_size=20)))
    if prefix:
        prefix = sorted(prefix + draw(st.lists(st.sampled_from(prefix), max_size=4)))
        if draw(st.booleans()):
            prefix = draw(st.permutations(prefix))  # unsorted: may raise
    return (
        timing,
        block_mb,
        head_mb,
        positions,
        draw(st.booleans()),
        envelope_mb,
        extension_mb,
        prefix,
        draw(st.booleans()),
    )


@settings(max_examples=400, deadline=None)
@given(case=_cases())
def test_helical_kernel_matches_method_kernel(case):
    (
        timing,
        block_mb,
        head_mb,
        positions,
        startup_pending,
        envelope_mb,
        extension_mb,
        prefix,
        charge_switch,
    ) = case
    helical = HelicalKernel.of(timing, block_mb)
    method = MethodKernel(timing, block_mb)

    def agree(operation, *args):
        assert _outcome(lambda: getattr(helical, operation)(*args)) == _outcome(
            lambda: getattr(method, operation)(*args)
        ), (operation, args)

    for name in ("read_plain_s", "read_startup_s", "switch_s"):
        assert getattr(helical, name).hex() == getattr(method, name).hex()
    agree("sweep", head_mb, sorted(positions), startup_pending)
    agree("sweep", head_mb, positions, startup_pending)
    states = [(head_mb, startup_pending)] + [
        (position + block_mb, False) for position in positions
    ]
    for head, startup in states:
        agree("transition_row", head, startup, positions)
    agree("extension_bandwidth", envelope_mb, charge_switch, extension_mb)
    agree("best_prefix", envelope_mb, charge_switch, prefix)

    blocks = sorted(set(positions))
    if blocks:
        served = float(len(blocks) + len(positions))
        for deferred, overhead_s in ((0.0, 0.0), (7.0, helical.switch_s)):
            args = (head_mb, blocks, served, deferred, overhead_s)
            assert helical.tape_bound(*args) >= method.tape_bound(*args) * (
                1.0 - 1e-12
            )


def test_factory_picks_the_kernel_by_exact_model_type():
    class Subclass(DriveTimingModel):
        pass

    subclass = Subclass(
        **{f.name: getattr(EXB_8505XL, f.name) for f in dataclasses.fields(EXB_8505XL)}
    )
    scaled = EXB_8505XL.scaled(2.0)
    assert type(pricing_kernel(DLT_STYLE, 16.0)) is MethodKernel
    assert type(pricing_kernel(subclass, 16.0)) is MethodKernel
    assert type(pricing_kernel(scaled, 16.0)) is HelicalKernel
    assert type(pricing_kernel(EXB_8505XL, 1.0)) is HelicalKernel
    # One kernel per (model, block size), built once.
    assert pricing_kernel(scaled, 16.0) is pricing_kernel(scaled, 16.0)
    assert pricing_kernel(scaled, 1.0) is not pricing_kernel(scaled, 16.0)
    for build in (HelicalKernel.of, MethodKernel):
        with pytest.raises(ValueError):
            build(EXB_8505XL, -1.0)
