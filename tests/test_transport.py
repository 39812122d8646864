"""Tests for packetisation, TCP/RDMA models, and channels."""

import pytest

from repro.errors import ConfigurationError, TransportError
from repro.network.graph import Network
from repro.transport.channel import Channel
from repro.transport.packet import Packetiser
from repro.transport.protocols import RdmaTransport, TcpTransport
from repro.units import BYTES_PER_MEGABIT


class TestPacketiser:
    def test_payload_and_goodput(self):
        p = Packetiser(mtu_bytes=1500, header_bytes=40)
        assert p.payload_bytes == 1460
        assert p.goodput_ratio == pytest.approx(1460 / 1500)

    def test_packet_count_rounds_up(self):
        p = Packetiser(mtu_bytes=1500, header_bytes=40)
        one_packet_mb = 1460 / 125_000
        assert p.packets_for(one_packet_mb) == 1
        assert p.packets_for(one_packet_mb * 1.01) == 2

    def test_zero_size_zero_packets(self):
        assert Packetiser().packets_for(0.0) == 0

    def test_wire_megabits_adds_headers(self):
        p = Packetiser(mtu_bytes=1500, header_bytes=40)
        header_mb = p.packets_for(100.0) * p.header_bytes / BYTES_PER_MEGABIT
        assert 100.0 + header_mb > 100.0

    def test_headers_must_fit_mtu(self):
        with pytest.raises(ConfigurationError):
            Packetiser(mtu_bytes=100, header_bytes=100)

    def test_negative_size_rejected(self):
        with pytest.raises(TransportError):
            Packetiser().packets_for(-1.0)


class TestTcpTransport:
    def test_goodput_below_raw_rate(self):
        tcp = TcpTransport()
        assert tcp.effective_rate_gbps(10.0, 1.0) < 10.0

    def test_window_limits_long_rtt(self):
        tcp = TcpTransport(window_mb=10.0)
        # At 100 ms RTT, window/RTT = 0.1 Gbps regardless of raw rate.
        assert tcp.effective_rate_gbps(100.0, 100.0) == pytest.approx(0.1)

    def test_loss_reduces_goodput(self):
        clean = TcpTransport(loss_rate=0.0)
        lossy = TcpTransport(loss_rate=0.01)
        assert lossy.effective_rate_gbps(10.0, 1.0) < clean.effective_rate_gbps(10.0, 1.0)

    def test_transfer_includes_handshake(self):
        tcp = TcpTransport()
        short = tcp.transfer_ms(100.0, 10.0, 0.0)
        long = tcp.transfer_ms(100.0, 10.0, 10.0)
        assert long >= short + 1.5 * 10.0 - 1e-6

    def test_zero_size_transfers_instantly(self):
        assert TcpTransport().transfer_ms(0.0, 10.0, 5.0) == 0.0

    def test_cpu_scales_with_packets(self):
        tcp = TcpTransport(cpu_us_per_packet=2.0)
        assert tcp.endpoint_cpu_ms(200.0) == pytest.approx(
            2 * tcp.endpoint_cpu_ms(100.0), rel=0.01
        )

    def test_invalid_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            TcpTransport(loss_rate=1.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(TransportError):
            TcpTransport().transfer_ms(1.0, 0.0, 1.0)


class TestRdmaTransport:
    def test_cpu_orders_of_magnitude_below_tcp(self):
        size = 1_000.0
        assert RdmaTransport().endpoint_cpu_ms(size) < TcpTransport().endpoint_cpu_ms(size) / 100

    def test_beats_tcp_at_short_distance(self):
        tcp = TcpTransport(loss_rate=1e-5)
        rdma = RdmaTransport(loss_rate=1e-5)
        assert rdma.transfer_ms(1_000.0, 50.0, 0.05) < tcp.transfer_ms(1_000.0, 50.0, 0.05)

    def test_buffer_limits_long_rtt(self):
        rdma = RdmaTransport(buffer_mb=16.0)
        # 20 ms RTT: capped at 16/20 = 0.8 Gbps.
        assert rdma.effective_rate_gbps(100.0, 20.0) == pytest.approx(0.8)

    def test_long_distance_degradation_with_loss(self):
        rdma = RdmaTransport(loss_rate=1e-4, go_back_n=True, buffer_mb=1e9)
        short = rdma.effective_rate_gbps(50.0, 0.1)
        long = rdma.effective_rate_gbps(50.0, 20.0)
        assert long < short  # go-back-N waste grows with in-flight window

    def test_no_degradation_without_loss(self):
        rdma = RdmaTransport(loss_rate=0.0, buffer_mb=1e9)
        assert rdma.effective_rate_gbps(50.0, 0.1) == pytest.approx(
            rdma.effective_rate_gbps(50.0, 20.0)
        )

    def test_selective_repeat_mode(self):
        gbn = RdmaTransport(loss_rate=1e-4, go_back_n=True, buffer_mb=1e9)
        sr = RdmaTransport(loss_rate=1e-4, go_back_n=False, buffer_mb=1e9)
        assert sr.effective_rate_gbps(50.0, 20.0) > gbn.effective_rate_gbps(50.0, 20.0)

    def test_invalid_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            RdmaTransport(buffer_mb=0.0)


class TestChannel:
    @pytest.fixture
    def pair(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 100.0, distance_km=200.0)
        return net

    def test_propagation_and_rtt(self, pair):
        channel = Channel(pair, ("a", "b"), 10.0)
        assert channel.propagation_ms() == pytest.approx(1.0)
        assert channel.rtt_ms() == pytest.approx(2.0)

    def test_estimate_decomposes(self, pair):
        channel = Channel(pair, ("a", "b"), 10.0)
        estimate = channel.estimate(100.0)
        assert estimate.total_ms == pytest.approx(
            estimate.propagation_ms + estimate.transfer_ms
        )
        assert estimate.effective_rate_gbps <= 10.0

    def test_default_transport_is_tcp(self, pair):
        assert isinstance(Channel(pair, ("a", "b"), 10.0).transport, TcpTransport)

    def test_rdma_channel_faster_locally(self):
        # Datacenter distance: RDMA's buffer cap is far from binding, so
        # its lower header/CPU overhead wins.  (At 200 km the 16 Mb buffer
        # caps RDMA below TCP — that is the designed long-haul degradation,
        # covered in TestRdmaTransport.)
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 100.0, distance_km=1.0)
        tcp = Channel(net, ("a", "b"), 10.0, TcpTransport(loss_rate=0.0))
        rdma = Channel(net, ("a", "b"), 10.0, RdmaTransport(loss_rate=0.0))
        assert rdma.estimate(1_000.0).total_ms < tcp.estimate(1_000.0).total_ms

    def test_invalid_rate_rejected(self, pair):
        with pytest.raises(ConfigurationError):
            Channel(pair, ("a", "b"), 0.0)

    def test_empty_path_rejected(self, pair):
        with pytest.raises(ConfigurationError):
            Channel(pair, (), 10.0)
