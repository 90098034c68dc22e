"""Pitch and intensity tracks from mono PCM audio, plus span statistics.

Pitch is estimated per frame from the normalized autocorrelation of the
Hann-windowed frame, de-biased by the window's own autocorrelation so a
clean periodic signal peaks near 1.0 at its true lag. Frames whose best
peak falls below the voicing threshold are marked unvoiced. Intensity is
plain RMS in dB re unit full scale.

Both trackers take every frame as a row of one strided view of the signal
(no copy) and work through the rows in blocks of 64 frames, each block a
handful of array operations: one batched FFT pair for pitch, one mean for
intensity. The autocorrelation FFT length is the next power of two at
or above win + lag_max + 1, the shortest at which no lag that is read
(0 .. lag_max + 1) picks up circular wrap-around; at 16 kHz with the
default 40 ms window that is 1024 points.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    EmptySignal,
    FormatError,
    InvalidSpan,
    UnsupportedRate,
)

UNVOICED = float("nan")
MIN_SAMPLE_RATE = 8000.0
INTENSITY_FLOOR_DB = -120.0
_RMS_FLOOR = 1e-6
# Frames per vectorised step of the trackers. On 206 s of 16 kHz audio
# (2-core Xeon VM) blocks of 16 to 64 frames ran fastest; 256 ran about
# 35% slower, and a pitch call's peak allocation grows with the block
# (2.5 MB at 64 frames, 10 MB at 256).
_BLOCK_FRAMES = 64
# Longest window or hop, in samples, taken as given. A longer one frames
# any signal alike (no frame, or only the first); the cap keeps it finite.
_MAX_SPAN = 2 ** 62


@dataclass(frozen=True)
class DspConfig:
    window_s: float = 0.040
    hop_s: float = 0.010
    f_min: float = 75.0
    f_max: float = 600.0
    voicing_threshold: float = 0.45

    def __post_init__(self):
        # a bool is an int, and NaN fails every comparison, so neither may
        # reach the frame grid or the voicing test
        for name in ("window_s", "hop_s", "f_min", "f_max", "voicing_threshold"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigError(
                    f"{name} must be a finite number, got {value!r:.40}")
        if not self.window_s > 0:
            raise ConfigError(f"window_s must be > 0, got {self.window_s}")
        if not self.hop_s > 0:
            raise ConfigError(f"hop_s must be > 0, got {self.hop_s}")
        if not 0 < self.f_min < self.f_max:
            raise ConfigError(
                f"need 0 < f_min < f_max, got f_min={self.f_min}, "
                f"f_max={self.f_max}")


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


def _frame_grid(samples: np.ndarray, sample_rate: float, cfg: DspConfig):
    """(win, frames, centers): frames is a (n_frames, win) view of samples,
    one row per hop, and centers holds each frame's center time."""
    win = int(round(min(cfg.window_s * sample_rate, _MAX_SPAN)))
    hop = int(round(min(cfg.hop_s * sample_rate, _MAX_SPAN)))
    if win < 1 or hop < 1:
        raise ConfigError(
            f"window_s {cfg.window_s} and hop_s {cfg.hop_s} must each span "
            f"at least one sample at {sample_rate} Hz")
    if win > len(samples):
        # no frame fits: sliding_window_view rejects such a window, and
        # NumPy cannot shape even an empty (0, win) array for a huge win
        return win, np.empty((0, 0)), np.empty(0)
    starts = np.arange(0, len(samples) - win + 1, hop)
    centers = (starts + win / 2.0) / sample_rate
    return win, sliding_window_view(samples, win)[::hop], centers


def _blocks(frames: np.ndarray):
    """(first frame index, block of up to _BLOCK_FRAMES frame rows)."""
    for lo in range(0, len(frames), _BLOCK_FRAMES):
        yield lo, frames[lo:lo + _BLOCK_FRAMES]


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
    win, frames, centers = _frame_grid(samples, sample_rate, cfg)

    # floats until checked: a tiny f_min or f_max makes them infinite
    lag_min = max(2, np.floor(sample_rate / cfg.f_max))
    lag_max = min(np.ceil(sample_rate / cfg.f_min), win - 2)
    if lag_max < lag_min:
        raise ConfigError(
            f"window_s {cfg.window_s} is too short for f_max {cfg.f_max} "
            f"at {sample_rate} Hz")
    lag_min, lag_max = int(lag_min), int(lag_max)
    f0 = np.full(len(frames), UNVOICED)
    if not len(frames):  # build no window for an empty grid
        return PitchTrack(cfg.hop_s, centers, f0)

    window = np.hanning(win)
    # Lags 0 .. lag_max + 1 are read. A circular autocorrelation of length
    # nfft folds lag nfft - k onto lag k, and a frame has no lag beyond
    # win - 1, so nfft >= win + lag_max + 1 leaves every read lag exact.
    nfft = 1 << (win + lag_max).bit_length()
    # window's own autocorrelation, for de-biasing the taper
    wspec = np.abs(np.fft.rfft(window, nfft)) ** 2
    r_win = np.fft.irfft(wspec)[:lag_max + 2]
    r_win /= r_win[0]

    for lo, block in _blocks(frames):
        centred = block - block.mean(axis=1, keepdims=True)
        # row energies, summed as np.dot sums them (one BLAS ddot per row)
        energy = (centred[:, None, :] @ centred[:, :, None])[:, 0, 0]
        spec = np.abs(np.fft.rfft(centred * window, nfft, axis=1)) ** 2
        r = np.fft.irfft(spec, axis=1)[:, :lag_max + 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            # silent rows give NaN here; the voiced test below drops them
            norm = (r / r[:, :1]) / r_win

            band = norm[:, lag_min:lag_max + 1]
            best = band.max(axis=1)
            # Multiples of the true lag peak at the same height, so a bare
            # argmax can land an octave (or more) low. Among local maxima
            # within a small margin of the best, take the shortest lag.
            edge = np.full((len(band), 1), -np.inf)
            left = np.concatenate([edge, band[:, :-1]], axis=1)
            right = np.concatenate([band[:, 1:], edge], axis=1)
            peak = ((band >= left) & (band >= right)
                    & (band >= best[:, None] - 0.02))
            lag = lag_min + peak.argmax(axis=1)
            # parabolic interpolation over (lag-1, lag, lag+1)
            rows = np.arange(len(norm))
            y0, y1, y2 = (norm[rows, lag + k] for k in (-1, 0, 1))
            denom = y0 - 2.0 * y1 + y2
            delta = np.where(denom == 0.0, 0.0, 0.5 * (y0 - y2) / denom)
            f0_hz = sample_rate / (lag + np.clip(delta, -0.5, 0.5))
            voiced = ((energy >= (_RMS_FLOOR ** 2) * win) & (r[:, 0] > 0.0)
                      & (best >= cfg.voicing_threshold)
                      & (f0_hz >= cfg.f_min) & (f0_hz <= cfg.f_max))
        f0[lo:lo + len(block)][voiced] = f0_hz[voiced]
    return PitchTrack(cfg.hop_s, centers, f0)


def compute_intensity(samples, sample_rate: float,
                      cfg: DspConfig = DspConfig()) -> IntensityTrack:
    """Per-frame RMS in dB = 20*log10(rms/1.0), floored at -120 dB."""
    samples = _validate_signal(samples, sample_rate)
    _, frames, centers = _frame_grid(samples, sample_rate, cfg)
    db = np.full(len(frames), INTENSITY_FLOOR_DB)
    for lo, block in _blocks(frames):
        rms = np.sqrt(np.mean(block * block, axis=1))
        loud = rms >= _RMS_FLOOR
        db[lo:lo + len(block)][loud] = 20.0 * np.log10(rms[loud])
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
    """Load a 16-bit or float PCM WAV as float64 in [-1, 1], mono. A file
    that SciPy cannot parse as a WAV is a FormatError naming the path."""
    from scipy.io import wavfile

    try:
        rate, data = wavfile.read(path)
    # what wavfile.read raises on a malformed file: ValueError for a bad
    # header or chunk, and the others from fields it reads unchecked
    except (ValueError, UnboundLocalError, ZeroDivisionError,
            struct.error) as exc:
        raise FormatError(f"{path}: not a readable WAV file "
                          f"({type(exc).__name__}: {exc})") from None
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
