import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressnet.dsp import (
    DspConfig,
    Track,
    compute_intensity,
    estimate_pitch,
    read_wav,
)
from stressnet.errors import (
    ConfigError,
    EmptySignal,
    FormatError,
    InvalidSpan,
    ShapeError,
    UnsupportedRate,
)
from stressnet.features import extract_features
from conftest import (IEEE_FLOAT, MALFORMED_WAVS, PCM, SCIPY_READS, SR, chunk,
                      damaged_wavs, fmt_chunk, riff, wav_bytes)
from oracles import reference_intensity, reference_pitch, scipy_read_wav


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

    # channels are averaged by read_wav; the trackers take one
    @pytest.mark.parametrize("shape", [(), (8000, 2), (1, 8000), (2, 400, 2)])
    def test_signal_must_be_1d(self, shape):
        for track in (estimate_pitch, compute_intensity):
            with pytest.raises(ShapeError, match="1-D"):
                track(np.zeros(shape), SR)

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
    """The statistics of one span, as features.extract_features takes them
    over the frames whose centres fall in the span: the first six slots
    are pitch mean, max and voiced duration, intensity mean and max, and
    the span's duration."""

    def stats(self, pitch_values, int_values, start, end, hop=0.01):
        times = hop / 2 + hop * np.arange(len(pitch_values))
        pitch = Track(hop, times, np.asarray(pitch_values, dtype=np.float64))
        intensity = Track(hop, times, np.asarray(int_values, dtype=np.float64))
        return extract_features(pitch, intensity, [(start, end, start, end)])[0, :6]

    def test_pitch_stats_skip_unvoiced(self):
        v = self.stats([100.0, 110.0, np.nan, 120.0], [-10.0] * 4, 0.0, 0.04)
        assert v[0] == pytest.approx(110.0)
        assert v[1] == pytest.approx(120.0)
        assert v[2] == pytest.approx(0.03)
        assert v[5] == pytest.approx(0.04)

    def test_empty_span_absent(self):
        # frame centres at 5 and 15 ms: [11, 14) ms holds none
        v = self.stats([100.0, 110.0], [-10.0, -20.0], 0.011, 0.014)
        assert np.isnan(v[0]) and np.isnan(v[1])
        assert v[2] == 0.0

    def test_intensity_arithmetic(self):
        v = self.stats([100.0, 100.0], [-10.0, -20.0], 0.0, 0.02)
        assert v[3] == pytest.approx(-15.0)
        assert v[4] == pytest.approx(-10.0)
        assert v[5] == pytest.approx(0.02)

    def test_inverted_span(self):
        with pytest.raises(InvalidSpan):
            self.stats([100.0] * 60, [-10.0] * 60, 0.5, 0.1)
        with pytest.raises(InvalidSpan):  # an inverted nucleus, too
            extract_features(
                Track(0.01, 0.005 + 0.01 * np.arange(60), np.full(60, 100.0)),
                Track(0.01, 0.005 + 0.01 * np.arange(60), np.full(60, -10.0)),
                [(0.0, 0.5, 0.3, 0.2)])

    def test_enlarging_span_never_decreases_max(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(80, 300, 50)
        values[rng.random(50) < 0.3] = np.nan
        hop = 0.01
        times = hop / 2 + hop * np.arange(50)
        ends = np.linspace(0.05, 0.5, 12)
        spans = np.stack([np.zeros(12), ends, np.zeros(12), ends], axis=1)
        out = extract_features(Track(hop, times, values),
                               Track(hop, times, np.zeros(50)), spans)
        maxima = out[:, 1][~np.isnan(out[:, 1])]
        assert len(maxima) and np.all(np.diff(maxima) >= 0)

    def test_half_open_span_boundary(self):
        # frame centers at 5, 15, 25 ms; [0, 0.015) holds only the first
        v = self.stats([100.0] * 3, [-10.0, -20.0, -30.0], 0.0, 0.015)
        assert v[3] == pytest.approx(-10.0)


# --- block path against a per-frame reference -----------------------------


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


# (f_min, f_max) pairs: the default, a low and a high voice, and a narrow band
PITCH_BANDS = [(75.0, 600.0), (50.0, 300.0), (150.0, 1000.0), (100.0, 130.0)]


class TestPitchWorkspace:
    """estimate_pitch on its per-call workspace against the per-frame
    oracle, and what the workspace costs in memory."""

    @given(sr=st.sampled_from(RATES), n_frames=st.integers(0, 200),
           window_s=st.floats(0.03, 0.055), band=st.sampled_from(PITCH_BANDS),
           tone_hz=st.floats(60.0, 900.0),
           tone=st.sampled_from([0.0, 1e-6, 0.5]),
           noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.3]),
           nan_at=st.none() | st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bits_match_the_per_frame_oracle(self, sr, n_frames, window_s,
                                             band, tone_hz, tone, noise,
                                             nan_at, seed):
        cfg = DspConfig(window_s=window_s, f_min=band[0], f_max=band[1])
        win, hop = int(round(window_s * sr)), int(round(cfg.hop_s * sr))
        n = win - 1 if n_frames == 0 else win + (n_frames - 1) * hop
        t = np.arange(n) / sr
        x = (tone * np.sin(2 * np.pi * tone_hz * t)
             + noise * np.random.default_rng(seed).standard_normal(n))
        if nan_at is not None:
            x[int(nan_at * (n - 1))] = np.nan
        got = estimate_pitch(x, sr, cfg).values
        nfft, _ = fft_lengths(sr, cfg)
        assert len(got) == n_frames
        assert np.array_equal(got, reference_pitch(x, sr, nfft, cfg),
                              equal_nan=True)

    def test_no_state_carries_between_calls(self):
        x = block_signals(SR, 129)["glide"]
        first = estimate_pitch(x, SR).values
        y = block_signals(44100, 65, DspConfig(window_s=0.055))["glide"]
        estimate_pitch(y, 44100, DspConfig(window_s=0.055))
        assert first.tobytes() == estimate_pitch(x, SR).values.tobytes()

    def test_peak_allocation_of_one_call(self):
        x = np.random.default_rng(0).standard_normal(10 * SR)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            estimate_pitch(x, SR)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # about 2.1 MB: four (64, 1024) workspace arrays and per-frame values
        assert peak <= 2.4e6


def sample_bytes(tag, width, n):
    """n random samples: any bit pattern for integers, normal floats."""
    rng = np.random.default_rng(0)
    if tag == IEEE_FLOAT:
        return rng.standard_normal(n).astype(f"<f{width}").tobytes()
    return rng.bytes(n * width)


# formats read: (format tag, bytes per sample)
READ_FORMATS = {"int16": (PCM, 2), "int24": (PCM, 3), "int32": (PCM, 4),
                "float32": (IEEE_FLOAT, 4), "float64": (IEEE_FLOAT, 8)}


class TestReadWav:
    def test_int16_round_trip(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(np.array([0, 16384, -32768], dtype=np.int16)))
        samples, rate = read_wav(str(path))
        assert rate == SR
        assert samples.tolist() == [0.0, 0.5, -1.0]

    def test_24_bit_is_left_justified(self, tmp_path):
        path = tmp_path / "a.wav"
        # little-endian 24-bit 0x400000 (half scale) and 0x800000 (-1)
        path.write_bytes(riff(fmt_chunk(PCM, 1, 3),
                              chunk(b"data", b"\0\0\x40\0\0\x80\x01\0\0")))
        samples, _ = read_wav(str(path))
        assert samples.tolist() == [0.5, -1.0, 2.0 ** -23]

    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "ext"])
    @pytest.mark.parametrize("n", [0, 1, 7, 160])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("fmt", sorted(READ_FORMATS))
    def test_same_bytes_as_scipy(self, tmp_path, fmt, channels, n, extensible):
        tag, width = READ_FORMATS[fmt]
        # an odd-sized chunk with its pad byte and a fact chunk, both skipped
        data = riff(chunk(b"LIST", b"INFOx"),
                    fmt_chunk(tag, channels, width, rate=22050,
                              extensible=extensible),
                    chunk(b"fact", struct.pack("<I", n)),
                    chunk(b"data", sample_bytes(tag, width, n * channels)))
        path = tmp_path / "a.wav"
        path.write_bytes(data)
        samples, rate = read_wav(str(path))
        want, want_rate = scipy_read_wav(str(path))
        assert samples.dtype == np.float64 and samples.shape == (n,)
        assert samples.tobytes() == want.tobytes()
        assert rate == want_rate == 22050.0

    @pytest.mark.parametrize("dtype", ["<i2", "<i4", "<f4", "<f8"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_same_bytes_as_scipy_on_files_it_wrote(self, tmp_path, dtype,
                                                   channels):
        rng = np.random.default_rng(1)
        data = (rng.standard_normal((8, channels)) if dtype[1] == "f"
                else rng.integers(-2 ** 15, 2 ** 15, (8, channels))).astype(dtype)
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes(data[:, 0] if channels == 1 else data))
        samples, rate = read_wav(str(path))
        want, want_rate = scipy_read_wav(str(path))
        assert samples.tobytes() == want.tobytes() and rate == want_rate

    @pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
    def test_malformed_is_format_error_naming_path(self, tmp_path, name):
        path = tmp_path / f"{name}.wav"
        path.write_bytes(MALFORMED_WAVS[name])
        with pytest.raises(FormatError, match=str(path)):
            read_wav(str(path))

    # each narrowing against SciPy: it reads the file, read_wav does not
    @pytest.mark.parametrize("name", sorted(SCIPY_READS))
    def test_narrowing_against_scipy(self, tmp_path, name):
        from scipy.io import wavfile
        path = tmp_path / f"{name}.wav"
        path.write_bytes(SCIPY_READS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
            wavfile.read(str(path))
        with pytest.raises(FormatError, match=str(path)):
            read_wav(str(path))

    # read_wav raises nothing but FormatError on a damaged file, and what
    # it reads, SciPy reads to the same bytes
    @given(raw=damaged_wavs())
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_file(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("wav") / "d.wav"
        path.write_bytes(raw)
        try:
            samples, rate = read_wav(str(path))
        except FormatError:
            return
        want, want_rate = scipy_read_wav(str(path))
        assert samples.ndim == 1 and samples.dtype == np.float64
        assert samples.tobytes() == want.tobytes() and rate == want_rate
