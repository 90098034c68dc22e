"""Pitch and intensity tracks from PCM audio, and the WAV reader.

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
default 40 ms window that is 1024 points. The trackers take one channel:
a 1-D signal. Both return a Track on the same frame grid (_frame_grid:
the hop, and each frame's center time), which features.extract_features
requires of the two tracks it is given.

A pitch call allocates one workspace of block-sized arrays, and every
block writes into it with out=: a zero-padded frame buffer, the complex
spectrum, its magnitudes, and the autocorrelation. The power spectrum
goes back into the complex array (imaginary part 0) for the inverse FFT,
because NumPy's irfft takes a complex128 spectrum faster than a float64
one, to the same bits. Each block keeps only per-frame values (energy,
r(0), the best band value, the peak's lag and its two neighbours);
parabolic interpolation and the voicing test then run once over all
frames. Every output bit is what the per-frame loop in the tests gives.
There are no threads: splitting a call's frames over two threads gained
on an idle host and lost once its second core was busy (the benchmark's
audio-featurize pipeline_rel read 6.67-6.88 with two threads against
6.32-6.58 without, 2-core VM, seeds 4-6, 30 s runs), and running
utterances on a thread pool raised peak memory by per-thread malloc
arenas.

read_wav walks the RIFF chunks of a file read once (or of its bytes, if
the caller read them), checking each chunk's size against the file
before it is used, and decodes the data chunk with one np.frombuffer. It reads PCM in 2-, 3- or 4-byte containers (3-byte
samples left-justified into int32, as SciPy returns them) and IEEE float
of 32 or 64 bits, with any number of channels, averaged to one. It
refuses, as a FormatError naming the path: RIFX and RF64 files; any
other format tag or container width; PCM of 8 bits or fewer, or of more
bits than its container; float of other bits than its container; a
chunk that runs past the end of the file (a data chunk cut short
included) or a chunk header cut short; a second fmt or data chunk; a
data chunk before the fmt chunk or not a whole number of frames; a byte
rate other than sample rate times frame size; a frame size that is not
a whole number of bytes per channel; and a frame that is not finite
(a float sample that is NaN or infinite, or channels whose average
overflows).
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
    ShapeError,
    UnsupportedRate,
)

UNVOICED = float("nan")
MIN_SAMPLE_RATE = 8000.0
INTENSITY_FLOOR_DB = -120.0
_RMS_FLOOR = 1e-6
# Frames per vectorised step of the trackers. estimate_pitch on 207 s of
# 16 kHz audio (28 WAVs, 2-core Xeon VM, sum over the WAVs of each one's
# fastest of 11 runs) took 271, 250, 241, 234 and 313 ms at 16, 32, 64,
# 128 and 256 frames, and one call on 10 s of audio peaked at 0.74, 1.20,
# 2.14, 3.99 and 7.68 MB: 128 is 3% faster than 64 for nearly twice the
# memory.
_BLOCK_FRAMES = 64
# Longest window or hop, in samples, taken as given. A longer one frames
# any signal alike (no frame, or only the first); the cap keeps it finite.
_MAX_SPAN = 2 ** 62
# fmt chunk format tags, and the last 12 bytes that every
# WAVE_FORMAT_EXTENSIBLE sub-format GUID {XXXXXXXX-0000-0010-8000-00AA00389B71}
# shares, as laid out in the file
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) -> (sample dtype, integer full scale)
_SAMPLE_TYPES = {
    (_PCM, 2): ("<i2", 2.0 ** 15),
    (_PCM, 3): ("<i4", 2.0 ** 31),
    (_PCM, 4): ("<i4", 2.0 ** 31),
    (_IEEE_FLOAT, 4): ("<f4", None),
    (_IEEE_FLOAT, 8): ("<f8", None),
}


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
    """Frame-synchronous values at constant hop; times are frame centers.
    values holds f0 in Hz, NaN where unvoiced (estimate_pitch), or
    intensity in dB re unit full-scale RMS (compute_intensity)."""

    frame_hop_s: float
    times_s: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)


def _validate_signal(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {samples.shape}")
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
                   cfg: DspConfig = DspConfig()) -> Track:
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
        return Track(cfg.hop_s, centers, f0)

    window = np.hanning(win)
    # Lags 0 .. lag_max + 1 are read. A circular autocorrelation of length
    # nfft folds lag nfft - k onto lag k, and a frame has no lag beyond
    # win - 1, so nfft >= win + lag_max + 1 leaves every read lag exact.
    nfft = 1 << (win + lag_max).bit_length()
    # window's own autocorrelation, for de-biasing the taper
    wspec = np.abs(np.fft.rfft(window, nfft)) ** 2
    r_win = np.fft.irfft(wspec)[:lag_max + 2]
    r_win /= r_win[0]
    # the lags read from here on: the band and one lag either side of it
    lags = slice(lag_min - 1, lag_max + 2)
    r_win = r_win[lags]

    # the workspace every block writes into; the frame buffer's columns
    # from win on stay zero, so rfft of a row pads the frame to nfft
    rows = min(_BLOCK_FRAMES, len(frames))
    padded = np.zeros((rows, nfft))
    spec = np.empty((rows, nfft // 2 + 1), dtype=np.complex128)
    mag = np.empty(spec.shape)
    acf = np.empty((rows, nfft))
    # the flat offsets in acf of each row's lags lag_min - 1 .. lag_min + 1;
    # adding a row's peak index in the band gives its peak lag -1, 0, +1
    near = (np.arange(rows) * nfft + lag_min - 1)[:, None] + np.arange(3)
    # per frame: the mean, then energy, r(0), the best band value, the
    # first peak's index in the band and the normalized autocorrelation at
    # the peak's lag -1, 0, +1
    means = frames.mean(axis=1)
    energy, r0, best = np.empty((3, len(frames)))
    peak_at = np.empty(len(frames), dtype=np.intp)
    around = np.empty((len(frames), 3))

    for lo, block in _blocks(frames):
        hi = lo + len(block)
        x = padded[:len(block)]
        head = x[:, :win]
        np.subtract(block, means[lo:hi, None], out=head)
        # row energies, summed as np.dot sums them (one BLAS ddot per row)
        energy[lo:hi] = (head[:, None, :] @ head[:, :, None])[:, 0, 0]
        np.multiply(head, window, out=head)
        X = np.fft.rfft(x, axis=1, out=spec[:len(block)])
        p = np.abs(X, out=mag[:len(block)])
        # irfft takes a complex128 spectrum faster than a float64 one
        np.multiply(p, p, out=X.real)
        X.imag = 0.0
        r = np.fft.irfft(X, nfft, axis=1, out=acf[:len(block)])
        r0[lo:hi] = r[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            # silent rows give NaN here; the voiced test below drops them
            norm = r[:, lags]
            np.divide(norm, r[:, :1], out=norm)
            np.divide(norm, r_win, out=norm)
        band = norm[:, 1:-1]
        band.max(axis=1, out=best[lo:hi])
        # Multiples of the true lag peak at the same height, so a bare
        # argmax can land an octave (or more) low. Among local maxima
        # within a small margin of the best, take the shortest lag; the
        # band's ends need only beat their one neighbour.
        peak = band >= best[lo:hi, None] - 0.02
        peak[:, 1:] &= band[:, 1:] >= band[:, :-1]
        peak[:, :-1] &= band[:, :-1] >= band[:, 1:]
        at = peak.argmax(axis=1, out=peak_at[lo:hi])
        acf.take(near[:len(block)] + at[:, None], out=around[lo:hi])

    lag = lag_min + peak_at
    y0, y1, y2 = around.T
    with np.errstate(divide="ignore", invalid="ignore"):
        # parabolic interpolation over (lag-1, lag, lag+1)
        denom = y0 - 2.0 * y1 + y2
        delta = np.where(denom == 0.0, 0.0, 0.5 * (y0 - y2) / denom)
        f0_hz = sample_rate / (lag + np.clip(delta, -0.5, 0.5))
        voiced = ((energy >= (_RMS_FLOOR ** 2) * win) & (r0 > 0.0)
                  & (best >= cfg.voicing_threshold)
                  & (f0_hz >= cfg.f_min) & (f0_hz <= cfg.f_max))
    f0[voiced] = f0_hz[voiced]
    return Track(cfg.hop_s, centers, f0)


def compute_intensity(samples, sample_rate: float,
                      cfg: DspConfig = DspConfig()) -> Track:
    """Per-frame RMS in dB = 20*log10(rms/1.0), floored at -120 dB."""
    samples = _validate_signal(samples, sample_rate)
    _, frames, centers = _frame_grid(samples, sample_rate, cfg)
    db = np.full(len(frames), INTENSITY_FLOOR_DB)
    for lo, block in _blocks(frames):
        rms = np.sqrt(np.mean(block * block, axis=1))
        loud = rms >= _RMS_FLOOR
        db[lo:lo + len(block)][loud] = 20.0 * np.log10(rms[loud])
    return Track(cfg.hop_s, centers, db)


def read_wav(path: str, buf: bytes | None = None) -> tuple[np.ndarray, float]:
    """(samples, rate) of a RIFF/WAVE file: float64 samples, integers
    scaled to [-1, 1), with the channels averaged to one.

    Reads PCM in 2-, 3- or 4-byte containers (3-byte samples are
    left-justified into int32 first) and IEEE float of 32 or 64 bits,
    tagged plainly or as WAVE_FORMAT_EXTENSIBLE. Any other file is a
    FormatError naming the path: see the module docstring. buf is the
    file's bytes if the caller has read them (to hash the very bytes that
    are decoded, say); else the file at path is read.
    """
    if buf is None:
        with open(path, "rb") as fh:
            buf = fh.read()
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    # bytes past the RIFF size are not chunks (an appended tag, say)
    end = min(len(buf), 8 + int.from_bytes(buf[4:8], "little"))
    chunks = {}  # chunk id -> (offset, size), for "fmt " and "data"
    pos = 12
    while pos < end:
        if pos + 8 > len(buf):
            raise FormatError(f"{path}: chunk header cut short at byte {pos}")
        cid = buf[pos:pos + 4]
        size = int.from_bytes(buf[pos + 4:pos + 8], "little")
        if pos + 8 + size > len(buf):
            raise FormatError(
                f"{path}: {cid!r} chunk of {size} bytes at byte {pos} runs "
                f"past the end of the file ({len(buf)} bytes)")
        if cid in (b"fmt ", b"data"):
            if cid in chunks:
                raise FormatError(f"{path}: more than one {cid!r} chunk")
            chunks[cid] = pos + 8, size
        pos += 8 + size + size % 2  # an odd-sized chunk has a pad byte
    fmt, data = chunks.get(b"fmt "), chunks.get(b"data")
    if fmt is None or data is None or data[0] < fmt[0]:
        raise FormatError(f"{path}: no fmt chunk followed by a data chunk")

    at, size = fmt
    if size < 16:
        raise FormatError(f"{path}: fmt chunk of {size} bytes, under 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(
        "<HHIIHH", buf, at)
    if tag == _EXTENSIBLE:
        # cbSize, then valid bits, channel mask and the sub-format GUID,
        # whose first 4 bytes are the format tag
        if size < 40 or struct.unpack_from("<H", buf, at + 16)[0] < 22:
            raise FormatError(
                f"{path}: WAVE_FORMAT_EXTENSIBLE without its 22-byte extension")
        guid = buf[at + 24:at + 40]
        if guid[4:] != _GUID_TAIL:
            raise FormatError(f"{path}: unknown sub-format GUID {guid.hex()}")
        tag = int.from_bytes(guid[:4], "little")
    if channels < 1 or block_align % channels:
        raise FormatError(
            f"{path}: {channels} channels in {block_align}-byte frames")
    width = block_align // channels
    sample_type = _SAMPLE_TYPES.get((tag, width))
    if sample_type is None or not (
            8 < bits <= 8 * width if tag == _PCM else bits == 8 * width):
        raise FormatError(f"{path}: unsupported sample format: tag {tag:#06x}, "
                          f"{bits} bits in {width} bytes")
    if byte_rate != rate * block_align:
        raise FormatError(f"{path}: byte rate {byte_rate} is not sample rate "
                          f"{rate} times frame size {block_align}")

    at, size = data
    if size % block_align:
        raise FormatError(f"{path}: data chunk of {size} bytes is not a whole "
                          f"number of {block_align}-byte frames")
    dtype, scale = sample_type
    if width == 3:
        # each 24-bit sample on top of a zero low byte: a left-justified int32
        wide = np.zeros((size // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(buf, np.uint8, size, at).reshape(-1, 3)
        ints = wide.view(dtype)[:, 0]
    else:
        ints = np.frombuffer(buf, dtype, size // width, at)
    # a signaling NaN sets "invalid" in the cast; it is refused below
    with np.errstate(invalid="ignore"):
        samples = ints.astype(np.float64)
    if scale is not None:
        samples /= scale
    if channels > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            samples = samples.reshape(-1, channels).mean(axis=1)
    # a NaN or infinite float sample, or finite ones averaging past 1.8e308
    if not np.isfinite(samples).all():
        bad = int(np.flatnonzero(~np.isfinite(samples))[0])
        raise FormatError(f"{path}: frame {bad} is not finite")
    return samples, float(rate)
