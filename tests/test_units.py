"""Tests for repro.units: conversions and guardrails.

Transmission and compute times are priced where production prices
them, under the same unit convention: the transport model's
``transfer_ms`` (1 Gbps moves 1 Mb per ms) and the shared training-time
formula (GFLOP / GFLOPS gives seconds).
"""

import pytest

from repro.core.evaluation import EvaluationConfig, train_round_ms
from repro.errors import ConfigurationError, SchedulingError, TransportError
from repro import units
from repro.tasks.aitask import AITask
from repro.tasks.models import MLModelSpec
from repro.transport.packet import Packetiser
from repro.transport.protocols import TcpTransport

#: Lossless, header-free TCP: at zero RTT it moves exactly size / rate.
IDEAL = TcpTransport(header_bytes=0, loss_rate=0.0)


def train_ms(work_gflop: float, speed_gflops: float) -> float:
    """One training round of ``work_gflop`` at ``speed_gflops``."""
    model = MLModelSpec("m", parameters=1e6, train_gflop_per_round=work_gflop)
    task = AITask(task_id="t", model=model, global_node="g", local_nodes=("l",))
    return train_round_ms(task, "l", EvaluationConfig(training_gflops=speed_gflops))


class TestByteConversions:
    def test_megabits_from_bytes_round_trip(self):
        megabits = units.megabits_from_bytes(1_000_000)
        assert megabits * units.BYTES_PER_MEGABIT == pytest.approx(1_000_000)

    def test_one_megabit_is_125_kb(self):
        assert units.megabits_from_bytes(125_000) == pytest.approx(1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            units.megabits_from_bytes(-1)

    def test_negative_megabits_rejected(self):
        with pytest.raises(TransportError):
            Packetiser().packets_for(-0.5)


class TestModelSize:
    def test_fp32_parameter_size(self):
        # 1M params x 4 bytes = 4 MB = 32 megabits
        assert units.megabits_from_parameters(1e6) == pytest.approx(32.0)

    def test_fp16_halves_size(self):
        full = units.megabits_from_parameters(1e6, 4.0)
        half = units.megabits_from_parameters(1e6, 2.0)
        assert half == pytest.approx(full / 2)

    def test_zero_parameters_is_zero(self):
        assert units.megabits_from_parameters(0) == 0.0

    def test_invalid_encoding_rejected(self):
        with pytest.raises(ConfigurationError):
            units.megabits_from_parameters(1e6, 0.0)


class TestTransmission:
    def test_one_gbps_moves_one_megabit_per_ms(self):
        assert IDEAL.transfer_ms(10.0, 1.0, 0.0) == pytest.approx(10.0)

    def test_scales_inversely_with_rate(self):
        assert IDEAL.transfer_ms(100.0, 10.0, 0.0) == pytest.approx(
            IDEAL.transfer_ms(100.0, 1.0, 0.0) / 10.0
        )

    def test_zero_size_is_instant(self):
        assert IDEAL.transfer_ms(0.0, 5.0, 0.0) == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(TransportError):
            IDEAL.transfer_ms(1.0, 0.0, 0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(TransportError):
            IDEAL.transfer_ms(-1.0, 1.0, 0.0)


class TestPropagation:
    def test_five_us_per_km(self):
        assert units.propagation_ms(200.0) == pytest.approx(1.0)

    def test_zero_distance(self):
        assert units.propagation_ms(0.0) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            units.propagation_ms(-3.0)


class TestCompute:
    def test_gflop_over_gflops_is_seconds(self):
        # 100 GFLOP at 100 GFLOPS = 1 s = 1000 ms
        assert train_ms(100.0, 100.0) == pytest.approx(1000.0)

    def test_zero_work(self):
        assert train_ms(0.0, 50.0) == 0.0

    def test_zero_speed_rejected(self):
        with pytest.raises(SchedulingError, match="training speed must be > 0"):
            train_ms(1.0, 0.0)

    def test_negative_work_rejected(self):
        with pytest.raises(ConfigurationError):
            train_ms(-1.0, 1.0)
