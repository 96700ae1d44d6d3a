"""Exception types shared across the toolkit."""


class BitextError(Exception):
    """Base class for all toolkit errors."""


class LineCountMismatch(BitextError):
    """Two line-aligned files (or streams) have different lengths."""

    def __init__(self, first_count: int, second_count: int, context: str):
        self.first_count = first_count
        self.second_count = second_count
        super().__init__(f"{context}: line counts differ: {first_count} vs {second_count}")


class EncodingError(BitextError):
    """A file is not valid UTF-8; reports the byte offset of the bad data."""

    def __init__(self, path, byte_offset: int, detail: str):
        self.path = path
        self.byte_offset = byte_offset
        super().__init__(f"{path}: invalid UTF-8 at byte offset {byte_offset} ({detail})")


class UnwritableField(BitextError, ValueError):
    """A field cannot be written so that reading it back gives it unchanged:
    it holds an LF, ends in a CR, or holds a TAB in TSV. It is also a
    ValueError, so that callers catching ValueError keep working."""

    def __init__(self, index: int, side: str, detail: str):
        self.index = index
        self.side = side
        super().__init__(f"pair {index}: {side} text {detail}")


class MalformedRow(BitextError):
    """A TSV row does not contain exactly one TAB separator."""

    def __init__(self, index: int, tab_count: int):
        self.index = index
        self.tab_count = tab_count
        super().__init__(f"malformed row at line index {index} ({tab_count} tabs)")


class InsufficientLanguages(BitextError):
    """Language-identifier training needs at least two languages."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"need at least 2 languages to train, got {count}")


class EmptySeed(BitextError):
    """A language's training seed contains no non-empty line."""

    def __init__(self, lang: str):
        self.lang = lang
        super().__init__(f"seed corpus for language {lang!r} has no non-empty lines")


class VersionMismatch(BitextError):
    """A model file carries an unsupported format version."""

    def __init__(self, found: int, supported: int):
        self.found = found
        self.supported = supported
        super().__init__(f"unsupported model format version {found} (supported: {supported})")


class ModelFormatError(BitextError):
    """A model file is corrupt or truncated; reports the failing byte offset."""

    def __init__(self, offset: int, detail: str):
        self.offset = offset
        super().__init__(f"corrupt model file at byte offset {offset}: {detail}")


class UnknownLanguage(BitextError):
    """A claimed language code is not covered by the classifier model."""

    def __init__(self, lang: str, known):
        self.lang = lang
        self.known = list(known)
        super().__init__(f"language {lang!r} not in model languages {self.known}")


class IndexMismatch(BitextError):
    """Two parallel sequences disagree on indices or lengths."""


class EmptyCorpus(BitextError):
    """An operation that needs at least one segment got an empty corpus."""
