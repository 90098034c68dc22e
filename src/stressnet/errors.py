"""Exception hierarchy shared across stressnet modules, and the one way
to open an output file so that a failed write names its path."""

import os
from contextlib import contextmanager


class StressnetError(Exception):
    """Base class for all stressnet errors."""


# --- lexicon ---------------------------------------------------------------

class EmptyLexicon(StressnetError):
    """The dictionary source contained no entries, or none that synth can
    use (a word of 2 to 17 syllables)."""


class NoNucleus(StressnetError):
    """A pronunciation has no vowel, so it cannot be syllabified."""


class UnknownVowel(StressnetError):
    """A phoneme was passed as a vowel but is not in the vowel inventory."""


class UnknownWord(StressnetError):
    """A word looked up that the dictionary does not hold."""


# --- dsp -------------------------------------------------------------------

class EmptySignal(StressnetError):
    """An empty sample buffer was given to a track extractor."""


class UnsupportedRate(StressnetError):
    """Sample rate below the supported minimum."""


class InvalidSpan(StressnetError):
    """A time span with start >= end."""


class SpanOutOfRange(StressnetError):
    """A requested span lies outside the extent of the analysed tracks."""


# --- corpus ----------------------------------------------------------------

class SplitTooSmall(StressnetError):
    """Fewer than two utterances; a train/test split is meaningless."""


# --- model -----------------------------------------------------------------

class ShapeError(StressnetError):
    """Array shape inconsistent with the model configuration, or a signal
    that is not 1-D."""


class LabelError(StressnetError):
    """A valid position carries an IGNORE label where a real one is required."""


class NumericalInstability(StressnetError):
    """A non-finite value appeared in a forward/backward pass or in an
    utterance's features."""


class DivergedAtEpoch(StressnetError):
    """Training loss became non-finite; carries the epoch index."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


# --- baselines -------------------------------------------------------------

class DegenerateData(StressnetError):
    """Training data that no fit can use: no instances at all, or a single
    class where a fit needs two. Exit 4, like every data error."""


# --- eval ------------------------------------------------------------------

class AlignmentError(StressnetError):
    """Predictions and gold syllables are misaligned."""


class InsufficientDimensions(StressnetError):
    """Embedding width too small for the requested projection."""


class FormatError(StressnetError):
    """A feature table, an alignment or a WAV that breaks its format: the
    message names the file and, where there is one, the line, word or
    syllable."""


# --- io / cli --------------------------------------------------------------

class CheckpointError(StressnetError):
    """Malformed or incompatible checkpoint file."""


class ConfigError(StressnetError):
    """A bad run setting, exit 3: a configuration file that is missing,
    malformed or has unknown keys, or a setting of the file or a flag that
    is ill-typed or out of range. Every settings object raises it where
    the check is made."""


@contextmanager
def open_output(path, mode: str = "w"):
    """Open path for writing, in UTF-8 text mode or in a binary mode ("wb").
    An OSError that names no file, raised while it is open or as it is
    closed (a full disk's ENOSPC comes from a write or the final flush),
    is given path as its filename, so its message ends with the path.
    The caller's block must therefore do no file I/O but this file's:
    an OSError of another file that names none would be given path."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
