"""Tests for circuit statistics."""

from repro.netlist import circuit_stats, random_circuit, s27_graph


class TestCircuitStats:
    def test_s27(self):
        stats = circuit_stats(s27_graph())
        assert stats.n_units == 14  # 4 pads + 10 gates
        assert stats.n_flip_flops == 3
        assert stats.n_inputs == 4
        assert stats.n_outputs == 1
        assert stats.max_fanout >= 2

    def test_histograms_account_everything(self):
        g = random_circuit("st", n_units=50, n_ffs=15, seed=12)
        stats = circuit_stats(g)
        assert sum(stats.fanout_histogram.values()) == stats.n_units
        total_regs = sum(w * c for w, c in stats.register_histogram.items())
        assert total_regs == stats.n_flip_flops

    def test_format_mentions_key_numbers(self):
        stats = circuit_stats(random_circuit("pp", n_units=20, n_ffs=6, seed=1))
        text = stats.format()
        assert "pp" in text
        assert "flip-flops" in text
        assert "max fanout" in text
