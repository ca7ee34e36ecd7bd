"""Unit tests for the USB channel: timing and the leak ledger."""

import pytest

from repro.errors import LeakError
from repro.flash.stats import COMM, CostLedger
from repro.hardware.channel import UsbChannel


def make_channel(mbps=1.0):
    ledger = CostLedger()
    channel = UsbChannel(ledger)
    channel.set_throughput(mbps)
    return channel, ledger


def test_inbound_transfer_time():
    ch, ledger = make_channel(mbps=1.0)
    ch.to_secure(1_000_000, "vis data")  # 1 MB at 1 MB/s = 1 s
    assert ledger.total_time_us() == pytest.approx(1e6)
    assert ch.stats.bytes_to_secure == 1_000_000


def test_throughput_scales_time():
    ch, ledger = make_channel(mbps=10.0)
    ch.to_secure(1_000_000)
    assert ledger.total_time_us() == pytest.approx(1e5)


def test_outbound_query_is_logged():
    ch, _ = make_channel()
    ch.to_untrusted(120, kind="query", description="SELECT ...")
    log = ch.audit_outbound()
    assert len(log) == 1
    assert log[0].kind == "query"
    assert log[0].nbytes == 120


def test_hidden_payload_refused():
    ch, _ = make_channel()
    with pytest.raises(LeakError):
        ch.to_untrusted(8, kind="query", description="ids",
                        contains_hidden=True)
    assert ch.audit_outbound() == []


def test_unknown_outbound_kind_refused():
    ch, _ = make_channel()
    with pytest.raises(LeakError):
        ch.to_untrusted(8, kind="intermediate_result")
    # results never travel to Untrusted: the kind is not on the list
    with pytest.raises(LeakError):
        ch.to_untrusted(8, kind="result_release")
    assert ch.audit_outbound() == []


def test_comm_charged_to_current_label():
    ch, ledger = make_channel()
    with ledger.label("Vis"):
        ch.to_secure(500)
    assert ledger.by_label_s() == {"Vis": 500e-6}
    assert ledger.total_time_us(COMM) == 500.0


def test_negative_size_rejected():
    ch, _ = make_channel()
    with pytest.raises(ValueError):
        ch.to_secure(-1)


def test_zero_throughput_rejected():
    ch, _ = make_channel(mbps=2.0)
    for mbps in (0, -1.5):
        with pytest.raises(ValueError):
            ch.set_throughput(mbps)
    assert ch.throughput_mbps == 2.0
