"""Pitch and intensity tracks from mono PCM audio, plus span statistics.

Pitch is estimated per frame from the normalized autocorrelation of the
Hann-windowed frame, de-biased by the window's own autocorrelation so a
clean periodic signal peaks near 1.0 at its true lag. Frames whose best
peak falls below the voicing threshold are marked unvoiced. Intensity is
plain RMS in dB re unit full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySignal, InvalidConfig, InvalidSpan, UnsupportedRate

UNVOICED = float("nan")
MIN_SAMPLE_RATE = 8000.0
INTENSITY_FLOOR_DB = -120.0
_RMS_FLOOR = 1e-6


@dataclass(frozen=True)
class DspConfig:
    window_s: float = 0.040
    hop_s: float = 0.010
    f_min: float = 75.0
    f_max: float = 600.0
    voicing_threshold: float = 0.45

    def __post_init__(self):
        if not self.window_s > 0:
            raise InvalidConfig(f"window_s must be > 0, got {self.window_s}")
        if not self.hop_s > 0:
            raise InvalidConfig(f"hop_s must be > 0, got {self.hop_s}")
        if not 0 < self.f_min < self.f_max:
            raise InvalidConfig(
                f"need 0 < f_min < f_max, got f_min={self.f_min}, "
                f"f_max={self.f_max}")

    @staticmethod
    def from_dict(d: dict) -> "DspConfig":
        return DspConfig(**d)


@dataclass(frozen=True)
class Track:
    """Frame-synchronous values at constant hop; times are frame centers."""

    frame_hop_s: float
    times_s: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)


class PitchTrack(Track):
    """values holds f0 in Hz; NaN marks unvoiced frames."""


class IntensityTrack(Track):
    """values holds intensity in dB re unit full-scale RMS."""


@dataclass(frozen=True)
class SegmentStats:
    mean: float | None
    max: float | None
    voiced_duration_s: float
    total_duration_s: float


def _validate_signal(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2:
        # stereo: downmix by channel average
        samples = samples.mean(axis=1)
    if samples.size == 0:
        raise EmptySignal("empty sample buffer")
    if sample_rate < MIN_SAMPLE_RATE:
        raise UnsupportedRate(
            f"sample rate {sample_rate} Hz below minimum {MIN_SAMPLE_RATE}")
    return samples


def _frame_grid(n_samples: int, sample_rate: float, cfg: DspConfig):
    win = int(round(cfg.window_s * sample_rate))
    hop = int(round(cfg.hop_s * sample_rate))
    if win < 1 or hop < 1:
        raise InvalidConfig(
            f"window_s {cfg.window_s} and hop_s {cfg.hop_s} must each span "
            f"at least one sample at {sample_rate} Hz")
    starts = np.arange(0, n_samples - win + 1, hop)
    centers = (starts + win / 2.0) / sample_rate
    return win, hop, starts, centers


def estimate_pitch(samples, sample_rate: float,
                   cfg: DspConfig = DspConfig()) -> PitchTrack:
    """Autocorrelation pitch track within [f_min, f_max].

    Per frame: Hann window, normalized autocorrelation r(tau)/r(0) divided
    by the window's normalized autocorrelation, peak search over the lag
    band, parabolic interpolation around the winning lag. The peak height
    is threshold-tested for voicing; the normalization makes both the
    decision and the f0 value invariant to signal amplitude.
    """
    samples = _validate_signal(samples, sample_rate)
    win, hop, starts, centers = _frame_grid(len(samples), sample_rate, cfg)

    lag_min = max(2, int(np.floor(sample_rate / cfg.f_max)))
    lag_max = int(np.ceil(sample_rate / cfg.f_min))
    lag_max = min(lag_max, win - 2)
    if lag_max < lag_min:
        raise InvalidConfig(
            f"window_s {cfg.window_s} is too short for f_max {cfg.f_max} "
            f"at {sample_rate} Hz")

    window = np.hanning(win)
    nfft = 1 << int(np.ceil(np.log2(2 * win)))
    # window's own autocorrelation, for de-biasing the taper
    wspec = np.abs(np.fft.rfft(window, nfft)) ** 2
    r_win = np.fft.irfft(wspec)[:lag_max + 2]
    r_win /= r_win[0]

    f0 = np.full(len(starts), UNVOICED)
    for i, s in enumerate(starts):
        frame = samples[s:s + win]
        frame = frame - frame.mean()
        energy = float(np.dot(frame, frame))
        if energy < (_RMS_FLOOR ** 2) * win:
            continue
        fw = frame * window
        spec = np.abs(np.fft.rfft(fw, nfft)) ** 2
        r = np.fft.irfft(spec)[:lag_max + 2]
        if r[0] <= 0.0:
            continue
        r = (r / r[0]) / r_win

        band = r[lag_min:lag_max + 1]
        best = float(band.max())
        if best < cfg.voicing_threshold:
            continue
        # Multiples of the true lag peak at the same height, so a bare
        # argmax can land an octave (or more) low. Among local maxima
        # within a small margin of the best, take the shortest lag.
        interior = np.zeros(band.shape, dtype=bool)
        interior[1:-1] = (band[1:-1] >= band[:-2]) & (band[1:-1] >= band[2:])
        interior[0] = band[0] >= band[1]
        interior[-1] = band[-1] >= band[-2]
        candidates = np.nonzero(interior & (band >= best - 0.02))[0]
        lag = lag_min + int(candidates[0])
        # parabolic interpolation over (lag-1, lag, lag+1)
        y0, y1, y2 = r[lag - 1], r[lag], r[lag + 1]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
        f0_hz = sample_rate / (lag + delta)
        if cfg.f_min <= f0_hz <= cfg.f_max:
            f0[i] = f0_hz
    return PitchTrack(cfg.hop_s, centers, f0)


def compute_intensity(samples, sample_rate: float,
                      cfg: DspConfig = DspConfig()) -> IntensityTrack:
    """Per-frame RMS in dB = 20*log10(rms/1.0), floored at -120 dB."""
    samples = _validate_signal(samples, sample_rate)
    win, hop, starts, centers = _frame_grid(len(samples), sample_rate, cfg)
    db = np.full(len(starts), INTENSITY_FLOOR_DB)
    for i, s in enumerate(starts):
        frame = samples[s:s + win]
        rms = float(np.sqrt(np.mean(frame * frame)))
        if rms >= _RMS_FLOOR:
            db[i] = 20.0 * np.log10(rms)
    return IntensityTrack(cfg.hop_s, centers, db)


def segment_stats(track: Track, start_s: float, end_s: float) -> SegmentStats:
    """Mean/max over frames whose centers fall in [start_s, end_s).

    Pitch tracks: only voiced frames count, and voiced_duration_s is the
    voiced frame count times the hop. Intensity tracks: all in-span frames
    count and the "voiced" duration is the full frame span. A span holding
    no usable frames yields mean = max = None and zero voiced duration.
    """
    if not start_s < end_s:
        raise InvalidSpan(f"inverted span [{start_s}, {end_s})")
    in_span = (track.times_s >= start_s) & (track.times_s < end_s)
    values = track.values[in_span]
    is_pitch = isinstance(track, PitchTrack)
    if is_pitch:
        values = values[np.isfinite(values)]
    if values.size == 0:
        return SegmentStats(None, None, 0.0, end_s - start_s)
    return SegmentStats(
        mean=float(values.mean()),
        max=float(values.max()),
        voiced_duration_s=float(values.size * track.frame_hop_s),
        total_duration_s=end_s - start_s,
    )


def read_wav(path: str) -> tuple[np.ndarray, float]:
    """Load a 16-bit or float PCM WAV as float64 in [-1, 1], mono."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    data = np.asarray(data)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise UnsupportedRate(f"unsupported WAV sample format {data.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return samples, float(rate)
