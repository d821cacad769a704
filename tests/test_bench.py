import hashlib
import math

import pytest

from tdroute import ChecksumMismatch, SweepConfig, run_sweep, to_csv
from tdroute.bench import _verify, run_cell


class TestSweepConfig:
    def test_rejects_bad_values(self):
        good = dict(k_values=(8,), strategies=("att",), queries=1)
        SweepConfig(**good)
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "k_values": ()})
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "k_values": (1,)})
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "queries": -1})
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "span": 1.5})
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "strategies": ("att", "nope")})
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "strategies": ("att", "l-fatt")})
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "window": 0})
        with pytest.raises(ValueError):
            SweepConfig(**{**good, "strategies": ()})


class TestRunCell:
    def test_strategies_share_queries_and_agree(self):
        config = SweepConfig(
            k_values=(64,), strategies=("att", "fatt", "b-fatt"), queries=10, seed=2
        )
        records = run_cell(64, config)
        assert [r.strategy for r in records] == ["att", "fatt", "b-fatt"]
        assert all(r.queries == 10 for r in records)
        att_rec, fatt_rec, bounded = records
        assert att_rec.probes > fatt_rec.probes  # steps dwarf probes at K=64
        assert bounded.window_bound is not None
        assert fatt_rec.max_probes_per_query <= math.log2(64) + 2

    def test_linear_cell(self):
        config = SweepConfig(
            k_values=(32,), strategies=("att-linear", "l-fatt"), queries=6, seed=3
        )
        records = run_cell(32, config)
        assert records[0].probes > 0
        assert records[1].max_probes_per_query <= math.log2(32) + 2

    def test_forced_window_shrinks_the_arc(self):
        config = SweepConfig(
            k_values=(128,), strategies=("fatt", "b-fatt"), queries=8, seed=4,
            window=8,
        )
        fatt_rec, bounded = run_cell(128, config)
        assert bounded.window_bound == 8
        assert bounded.probes <= fatt_rec.probes

    def test_checksum_mismatch_raises(self):
        with pytest.raises(ChecksumMismatch):
            _verify([(10.0, 1)], [(10.5, 1)], 8, "fatt")
        with pytest.raises(ChecksumMismatch):
            _verify([(10.0, 1)], [(10.0, 2)], 8, "fatt")
        _verify([(10.0, 1)], [(10.0 + 1e-12, 1)], 8, "fatt")


class TestCsv:
    def test_schema(self):
        config = SweepConfig(k_values=(16, 32), strategies=("att",), queries=2)
        text = to_csv(run_sweep(config))
        lines = text.strip().splitlines()
        assert lines[0] == "strategy,K,n,m,Q,queries,probes,wall_ns"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "16"
        assert lines[2].split(",")[1] == "32"


class TestPinnedSweep:
    # Both kinds, both policies, a forced window that shrinks the arc, and
    # one wider than the arc's natural Q (span 0.01, window 50).
    SWEEPS = (
        dict(strategies=("att", "fatt", "b-fatt"), seed=1),
        dict(strategies=("att", "fatt", "b-fatt"), seed=2, window=8),
        dict(strategies=("att-linear", "l-fatt"), seed=3),
        dict(
            strategies=("att", "fatt", "b-fatt"), seed=4, policy="periodic",
            span=0.3, window=3,
        ),
        dict(strategies=("fatt", "b-fatt"), seed=6, span=0.01, window=50),
        dict(strategies=("att-linear", "l-fatt"), seed=5, policy="periodic"),
    )
    DIGEST = "706c8a6642c671e42f4809bf76b95ad8223e65291d1d980580fbb7eb186c4369"

    def test_sweep_csv_reproduces_the_pinned_digest(self):
        # Everything but wall_ns, the only column that is not deterministic.
        digest = hashlib.sha256()
        for sweep in self.SWEEPS:
            config = SweepConfig(
                k_values=tuple(2**i for i in range(1, 11)), queries=12, **sweep
            )
            for line in to_csv(run_sweep(config)).splitlines():
                digest.update(line.rsplit(",", 1)[0].encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST
