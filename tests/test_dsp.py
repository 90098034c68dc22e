import numpy as np
import pytest

from stressnet.dsp import (
    DspConfig,
    IntensityTrack,
    PitchTrack,
    compute_intensity,
    estimate_pitch,
    segment_stats,
)
from stressnet.errors import (
    EmptySignal,
    InvalidConfig,
    InvalidSpan,
    UnsupportedRate,
)

SR = 16000


def sine(freq, dur=0.5, amp=1.0, sr=SR):
    t = np.arange(int(dur * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestDspConfig:
    @pytest.mark.parametrize("bad", [
        {"window_s": 0.0}, {"window_s": -0.04}, {"window_s": float("nan")},
        {"hop_s": 0.0}, {"hop_s": -0.01},
        {"f_min": 0.0}, {"f_min": -75.0},
        {"f_min": 700.0, "f_max": 600.0}, {"f_min": 300.0, "f_max": 300.0},
    ])
    def test_out_of_range_values_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            DspConfig.from_dict(bad)

    def test_hop_under_one_sample_rejected_at_signal_rate(self):
        cfg = DspConfig(hop_s=1e-6)
        with pytest.raises(InvalidConfig):
            estimate_pitch(sine(220.0), SR, cfg)
        with pytest.raises(InvalidConfig):
            compute_intensity(sine(220.0), SR, cfg)
        # 7e-5 s is 1.12 samples at 16 kHz: one sample after rounding
        assert len(compute_intensity(sine(220.0, dur=0.1), SR,
                                     DspConfig(hop_s=7e-5))) > 0

    def test_window_too_short_for_lag_band_rejected(self):
        with pytest.raises(InvalidConfig):
            estimate_pitch(sine(220.0), SR, DspConfig(window_s=0.0005))


class TestEstimatePitch:
    def test_pure_tone_within_two_percent(self):
        track = estimate_pitch(sine(220.0), SR)
        f0 = track.values
        assert np.isfinite(f0).all()
        assert np.all(np.abs(f0 - 220.0) / 220.0 < 0.02)

    def test_silence_unvoiced(self):
        track = estimate_pitch(np.zeros(SR // 2), SR)
        assert not np.isfinite(track.values).any()

    def test_octave_check_110(self):
        track = estimate_pitch(sine(110.0), SR)
        f0 = track.values[np.isfinite(track.values)]
        assert f0.size > 0
        assert np.all(np.abs(f0 - 110.0) / 110.0 < 0.02)
        assert not np.any(np.abs(f0 - 220.0) / 220.0 < 0.05)

    def test_tone_sweep_accuracy(self):
        # >= 95% of voiced frames within 2% across the band
        for freq in (100.0, 150.0, 220.0, 300.0, 400.0):
            track = estimate_pitch(sine(freq), SR)
            f0 = track.values[np.isfinite(track.values)]
            assert f0.size > 0.5 * len(track.values)
            ok = np.abs(f0 - freq) / freq < 0.02
            assert ok.mean() >= 0.95, freq

    def test_amplitude_invariance(self):
        ref = estimate_pitch(sine(180.0), SR)
        for k in (0.1, 0.35, 1.0):
            scaled = estimate_pitch(k * sine(180.0), SR)
            assert np.array_equal(np.isfinite(ref.values),
                                  np.isfinite(scaled.values))
            voiced = np.isfinite(ref.values)
            rel = np.abs(scaled.values[voiced] - ref.values[voiced]) \
                / ref.values[voiced]
            assert np.all(rel < 1e-3)

    def test_empty_signal(self):
        with pytest.raises(EmptySignal):
            estimate_pitch(np.array([]), SR)

    def test_low_rate_rejected(self):
        with pytest.raises(UnsupportedRate):
            estimate_pitch(sine(220.0), 4000)

    def test_frame_times_increasing_constant_hop(self):
        track = estimate_pitch(sine(220.0), SR)
        hops = np.diff(track.times_s)
        assert np.allclose(hops, track.frame_hop_s)


class TestComputeIntensity:
    def test_full_scale_sine(self):
        track = compute_intensity(sine(220.0, amp=1.0), SR)
        interior = track.values[1:-1]
        assert np.all(np.abs(interior - (-3.0102999566398125)) < 0.1)

    def test_half_scale_sine(self):
        track = compute_intensity(sine(220.0, amp=0.5), SR)
        interior = track.values[1:-1]
        assert np.all(np.abs(interior - (-9.030899869919436)) < 0.1)

    def test_silence_floor(self):
        track = compute_intensity(np.zeros(SR // 2), SR)
        assert np.all(track.values == -120.0)

    def test_db_shift_equivariance(self):
        ref = compute_intensity(sine(220.0), SR)
        for k in (0.1, 0.5):
            scaled = compute_intensity(k * sine(220.0), SR)
            shift = 20.0 * np.log10(k)
            assert np.allclose(scaled.values, ref.values + shift, atol=0.01)


class TestSegmentStats:
    def pitch_track(self, values, hop=0.01):
        times = hop / 2 + hop * np.arange(len(values))
        return PitchTrack(hop, times, np.asarray(values, dtype=np.float64))

    def intensity_track(self, values, hop=0.01):
        times = hop / 2 + hop * np.arange(len(values))
        return IntensityTrack(hop, times, np.asarray(values, dtype=np.float64))

    def test_pitch_stats_skip_unvoiced(self):
        track = self.pitch_track([100.0, 110.0, np.nan, 120.0])
        stats = segment_stats(track, 0.0, 0.04)
        assert stats.mean == pytest.approx(110.0)
        assert stats.max == pytest.approx(120.0)
        assert stats.voiced_duration_s == pytest.approx(0.03)
        assert stats.total_duration_s == pytest.approx(0.04)

    def test_empty_span_absent(self):
        track = self.pitch_track([100.0, 110.0])
        stats = segment_stats(track, 5.0, 6.0)
        assert stats.mean is None and stats.max is None
        assert stats.voiced_duration_s == 0.0

    def test_intensity_arithmetic(self):
        track = self.intensity_track([-10.0, -20.0])
        stats = segment_stats(track, 0.0, 0.02)
        assert stats.mean == pytest.approx(-15.0)
        assert stats.max == pytest.approx(-10.0)
        assert stats.voiced_duration_s == pytest.approx(0.02)

    def test_inverted_span(self):
        track = self.pitch_track([100.0])
        with pytest.raises(InvalidSpan):
            segment_stats(track, 0.5, 0.1)

    def test_enlarging_span_never_decreases_max(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(80, 300, 50)
        values[rng.random(50) < 0.3] = np.nan
        track = self.pitch_track(values)
        prev = -np.inf
        for end in np.linspace(0.05, 0.5, 12):
            stats = segment_stats(track, 0.0, float(end))
            if stats.max is not None:
                assert stats.max >= prev
                prev = stats.max

    def test_half_open_span_boundary(self):
        track = self.intensity_track([-10.0, -20.0, -30.0])
        # frame centers at 5, 15, 25 ms; [0, 0.015) holds only the first
        stats = segment_stats(track, 0.0, 0.015)
        assert stats.mean == pytest.approx(-10.0)
