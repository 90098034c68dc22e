import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressnet.dsp import (
    DspConfig,
    IntensityTrack,
    PitchTrack,
    compute_intensity,
    estimate_pitch,
    read_wav,
    segment_stats,
)
from stressnet.errors import (
    ConfigError,
    EmptySignal,
    FormatError,
    InvalidSpan,
    StressnetError,
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
        {"window_s": float("inf")}, {"hop_s": float("inf")},
        {"window_s": True}, {"hop_s": "0.01"}, {"f_max": None},
    ])
    def test_out_of_range_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            DspConfig(**bad)

    @pytest.mark.parametrize("threshold", [
        "abc", None, [0.45], True, float("nan"), float("inf"),
    ], ids=["string", "null", "list", "bool", "nan", "inf"])
    def test_voicing_threshold_must_be_a_finite_number(self, threshold):
        with pytest.raises(ConfigError):
            DspConfig(voicing_threshold=threshold)

    def test_hop_under_one_sample_rejected_at_signal_rate(self):
        cfg = DspConfig(hop_s=1e-6)
        with pytest.raises(ConfigError):
            estimate_pitch(sine(220.0), SR, cfg)
        with pytest.raises(ConfigError):
            compute_intensity(sine(220.0), SR, cfg)
        # 7e-5 s is 1.12 samples at 16 kHz: one sample after rounding
        assert len(compute_intensity(sine(220.0, dur=0.1), SR,
                                     DspConfig(hop_s=7e-5))) > 0

    def test_window_too_short_for_lag_band_rejected(self):
        with pytest.raises(ConfigError):
            estimate_pitch(sine(220.0), SR, DspConfig(window_s=0.0005))

    @pytest.mark.parametrize("window_s", [0.6, 1e6, 1e300, 1e305])
    def test_window_longer_than_signal_gives_no_frames(self, window_s):
        # 1e6 s would be a 128 GB Hann window, and 1e305 s is infinite in
        # samples; neither is built
        cfg = DspConfig(window_s=window_s)
        for track in (estimate_pitch(sine(220.0), SR, cfg),
                      compute_intensity(sine(220.0), SR, cfg)):
            assert len(track) == 0 and len(track.values) == 0

    @pytest.mark.parametrize("f", [{"f_min": 1e-320}, {"f_max": 1e300}])
    def test_extreme_pitch_band_limits(self, f):
        # sample_rate / f_min overflows to inf; the band ends at the window
        track = estimate_pitch(sine(220.0), SR, DspConfig(**f))
        assert len(track) == len(estimate_pitch(sine(220.0), SR))

    def test_band_above_a_tiny_f_max_rejected(self):
        with pytest.raises(ConfigError):
            estimate_pitch(sine(220.0), SR, DspConfig(f_min=1e-321, f_max=1e-320))

    def test_hop_longer_than_signal_gives_one_frame(self):
        track = compute_intensity(sine(220.0), SR, DspConfig(hop_s=1e300))
        assert len(track) == 1


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

    def test_nan_sample_leaves_only_its_frames_unvoiced(self):
        x = sine(200.0)
        x[3000] = np.nan  # inside the frames starting at 2400 .. 2880
        f0 = estimate_pitch(x, SR).values
        hit = np.zeros(len(f0), dtype=bool)
        hit[15:19] = True
        assert not np.isfinite(f0[hit]).any()
        assert np.isfinite(f0[~hit]).all()

    def test_lag_band_of_one_lag(self):
        # 7-sample window: lag_min = lag_max = 5
        cfg = DspConfig(window_s=0.00045, f_max=3000.0)
        f0 = estimate_pitch(sine(2500.0), SR, cfg).values
        voiced = f0[np.isfinite(f0)]
        assert voiced.size > 0
        assert np.all((voiced >= cfg.f_min) & (voiced <= cfg.f_max))

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


# --- block path against a per-frame reference -----------------------------

def reference_pitch(samples, sr, nfft, cfg=DspConfig()):
    """The per-frame pitch loop the block path replaced, with the FFT
    length as a parameter; used only as a test oracle."""
    samples = np.asarray(samples, dtype=np.float64)
    win = int(round(cfg.window_s * sr))
    hop = int(round(cfg.hop_s * sr))
    starts = np.arange(0, len(samples) - win + 1, hop)
    lag_min = max(2, int(np.floor(sr / cfg.f_max)))
    lag_max = min(int(np.ceil(sr / cfg.f_min)), win - 2)
    window = np.hanning(win)
    wspec = np.abs(np.fft.rfft(window, nfft)) ** 2
    r_win = np.fft.irfft(wspec)[:lag_max + 2]
    r_win /= r_win[0]
    f0 = np.full(len(starts), np.nan)
    for i, s in enumerate(starts):
        frame = samples[s:s + win]
        frame = frame - frame.mean()
        energy = float(np.dot(frame, frame))
        if energy < 1e-12 * win:
            continue
        spec = np.abs(np.fft.rfft(frame * window, nfft)) ** 2
        r = np.fft.irfft(spec)[:lag_max + 2]
        if r[0] <= 0.0:
            continue
        r = (r / r[0]) / r_win
        band = r[lag_min:lag_max + 1]
        best = float(band.max())
        if best < cfg.voicing_threshold:
            continue
        interior = np.zeros(band.shape, dtype=bool)
        interior[1:-1] = (band[1:-1] >= band[:-2]) & (band[1:-1] >= band[2:])
        interior[0] = band[0] >= band[1]
        interior[-1] = band[-1] >= band[-2]
        candidates = np.nonzero(interior & (band >= best - 0.02))[0]
        lag = lag_min + int(candidates[0])
        y0, y1, y2 = r[lag - 1], r[lag], r[lag + 1]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
        f0_hz = sr / (lag + delta)
        if cfg.f_min <= f0_hz <= cfg.f_max:
            f0[i] = f0_hz
    return f0


def reference_intensity(samples, sr, cfg=DspConfig()):
    """The per-frame intensity loop the block path replaced."""
    win = int(round(cfg.window_s * sr))
    hop = int(round(cfg.hop_s * sr))
    starts = np.arange(0, len(samples) - win + 1, hop)
    db = np.full(len(starts), -120.0)
    for i, s in enumerate(starts):
        frame = samples[s:s + win]
        rms = float(np.sqrt(np.mean(frame * frame)))
        if rms >= 1e-6:
            db[i] = 20.0 * np.log10(rms)
    return db


def fft_lengths(sr, cfg=DspConfig()):
    """(the block path's FFT length, the 2 * win length it replaced)."""
    win = int(round(cfg.window_s * sr))
    lag_max = min(int(np.ceil(sr / cfg.f_min)), win - 2)
    return (int(2 ** np.ceil(np.log2(win + lag_max + 1))),
            int(2 ** np.ceil(np.log2(2 * win))))


RATES = [8000, 11025, 16000, 22050, 44100]
FRAME_COUNTS = [0, 1, 63, 64, 65, 129]


def block_signals(sr, n_frames, cfg=DspConfig()):
    """Named test signals spanning exactly n_frames frames."""
    win, hop = int(round(cfg.window_s * sr)), int(round(cfg.hop_s * sr))
    n = win - 1 if n_frames == 0 else win + (n_frames - 1) * hop
    t = np.arange(n) / sr
    rng = np.random.default_rng(n_frames * 100003 + sr)
    # a tone whose pitch and level change every few frames
    glide = 0.6 * np.sin(2 * np.pi * np.cumsum(110.0 + 250.0 * (t % 0.3)) / sr)
    signals = {
        "silence": np.zeros(n),
        "tone_110": np.sin(2 * np.pi * 110.0 * t),
        "tone_400": 0.3 * np.sin(2 * np.pi * 400.0 * t),
        "glide": glide * (1.0 + 0.5 * np.sin(2 * np.pi * 3.0 * t)),
    }
    for level in (1e-7, 1e-6, 1e-5, 1e-3, 1.0):
        signals[f"noise_{level:g}"] = level * rng.standard_normal(n)
    return signals


class TestBlockPath:
    """The block trackers give what the per-frame loops give."""

    @pytest.mark.parametrize("n_frames", FRAME_COUNTS)
    @pytest.mark.parametrize("sr", RATES)
    def test_bit_identical_at_equal_fft_length(self, sr, n_frames):
        nfft, _ = fft_lengths(sr)
        for name, x in block_signals(sr, n_frames).items():
            pitch = estimate_pitch(x, sr)
            intensity = compute_intensity(x, sr)
            assert len(pitch) == len(intensity) == n_frames, name
            assert np.array_equal(pitch.values, reference_pitch(x, sr, nfft),
                                  equal_nan=True), name
            assert np.array_equal(intensity.values,
                                  reference_intensity(x, sr)), name

    # at 55 ms and 16 kHz, win + 1 would round up to 1024 points, too few
    # for the 1095 that lags up to lag_max + 1 need
    @pytest.mark.parametrize("window_s", [0.04, 0.055])
    @pytest.mark.parametrize("sr", RATES)
    def test_shorter_fft_moves_f0_by_rounding_only(self, sr, window_s):
        cfg = DspConfig(window_s=window_s)
        nfft, old_nfft = fft_lengths(sr, cfg)
        assert nfft <= old_nfft
        n_voiced = 0
        for n_frames in (65, 129):
            for name, x in block_signals(sr, n_frames, cfg).items():
                got = estimate_pitch(x, sr, cfg).values
                want = reference_pitch(x, sr, old_nfft, cfg)
                voiced = np.isfinite(want)
                assert np.array_equal(np.isfinite(got), voiced), name
                assert np.all(np.abs(got[voiced] - want[voiced])
                              <= 1e-12 * want[voiced]), name
                n_voiced += int(voiced.sum())
        assert n_voiced > 0

    def test_frames_are_centred_on_the_hop_grid(self):
        track = estimate_pitch(np.zeros(SR), SR)
        assert len(track) == 97
        assert np.array_equal(track.times_s,
                              (np.arange(97) * 160 + 320.0) / SR)


def wav_bytes(samples, sr=SR):
    from scipy.io import wavfile
    buf = io.BytesIO()
    wavfile.write(buf, sr, samples)
    return buf.getvalue()


# an empty file, and a RIFF/WAVE header followed by no valid chunk
MALFORMED_WAVS = {"empty": b"", "riff_junk": b"RIFF\x10\x00\x00\x00WAVEjunkjunk"}


class TestReadWav:
    def test_int16_round_trip(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(np.array([0, 16384, -32768], dtype=np.int16)))
        samples, rate = read_wav(str(path))
        assert rate == SR
        assert samples.tolist() == [0.0, 0.5, -1.0]

    @pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
    @pytest.mark.filterwarnings("ignore::UserWarning")  # SciPy's WavFileWarning
    def test_malformed_is_format_error_naming_path(self, tmp_path, name):
        path = tmp_path / f"{name}.wav"
        path.write_bytes(MALFORMED_WAVS[name])
        with pytest.raises(FormatError, match=str(path)):
            read_wav(str(path))

    # a valid header with bytes overwritten or cut short: either samples
    # come back or a StressnetError does, never another exception
    @given(edits=st.lists(st.tuples(st.integers(0, 47), st.integers(0, 255)),
                          max_size=4),
           length=st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore::UserWarning")  # SciPy's WavFileWarning
    def test_damaged_header(self, tmp_path_factory, edits, length):
        data = bytearray(wav_bytes(np.arange(8, dtype=np.int16)))
        for at, value in edits:
            data[at] = value
        path = tmp_path_factory.mktemp("wav") / "d.wav"
        path.write_bytes(bytes(data[:length]))
        try:
            read_wav(str(path))
        except StressnetError:
            pass
