"""Exception hierarchy shared across stressnet modules."""


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

class AlignmentFormat(StressnetError):
    """An alignment document violates the documented schema."""


class InvalidSpans(StressnetError):
    """Alignment spans overlap, are out of order, or nest incorrectly."""


class SplitTooSmall(StressnetError):
    """Fewer than two utterances; a train/test split is meaningless."""


# --- model -----------------------------------------------------------------

class ShapeError(StressnetError):
    """Array shape inconsistent with the model configuration."""


class LabelError(StressnetError):
    """A valid position carries an IGNORE label where a real one is required."""


class NumericalInstability(StressnetError):
    """A non-finite value appeared in a forward/backward pass."""


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
    """Unknown render or file format tag, a malformed feature table, or
    a file that cannot be read as a WAV."""


# --- io / cli --------------------------------------------------------------

class CheckpointError(StressnetError):
    """Malformed or incompatible checkpoint file."""


class ConfigError(StressnetError):
    """A bad run setting, exit 3: a configuration file that is missing,
    malformed or has unknown keys, or a setting of the file or a flag that
    is ill-typed or out of range. Every settings object raises it where
    the check is made."""
