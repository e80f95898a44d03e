"""Block factorization of triple-free binary words and the fast recognizer.

A binary word with no 000 or 111 factor splits uniquely at its doubled
letters into maximal alternating blocks; each doubled letter ends one
block and starts the next.  The profile records the block lengths
(n_0,...,n_k), which sum to the word length.  Words with no doubled
letter get the single-entry profile (|w|); the empty word gets ().

A word avoids x x^R x exactly when it is triple-free and its profile is
valley-free, so membership reduces to one left-to-right pass.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from ._scan_py import is_member, profile_of
from .sequences import _echo, _entries, parse_sequence
from .words import check_word

__all__ = [
    "MAX_RECONSTRUCT_LEN",
    "FactorDomainError",
    "Factorization",
    "ProfileError",
    "factorize",
    "is_in_l_linear",
    "parse_profile",
    "profile",
    "reconstruct",
    "validate_profile",
]


# longest word reconstruct builds: 10**7 letters, a 10 MB string
MAX_RECONSTRUCT_LEN = 10**7


class FactorDomainError(ValueError):
    """Raised on words containing 000 or 111, where no factorization exists."""


class ProfileError(ValueError):
    """Raised on profiles no triple-free word can have."""


def profile(w: str) -> tuple[int, ...]:
    """Block-length profile of a triple-free word."""
    b = check_word(w).encode("ascii")
    try:
        return tuple(profile_of(b))
    except ValueError:
        raise FactorDomainError("word contains 000 or 111; factorization undefined") from None


class Factorization(namedtuple("Factorization", "start_letter profile")):
    """Start letter plus profile; together they determine the word.

    After each doubled letter the continuation is forced (it must
    alternate, or a triple appears), so no block content is stored.
    ``start_letter`` is None only for the empty word.
    """

    __slots__ = ()
    start_letter: str | None
    profile: tuple[int, ...]

    def to_word(self) -> str:
        if self.start_letter is None:
            if self.profile:
                raise ProfileError("nonempty profile needs a start letter")
            return ""
        return reconstruct(self.start_letter, self.profile)


def factorize(w: str) -> Factorization:
    """Split w at its doubled letters; inverse of reconstruct."""
    p = profile(w)
    return Factorization(w[0] if w else None, p)


def validate_profile(entries: Iterable[int]) -> tuple[int, ...]:
    """Return the profile as a tuple; reject shapes no word realizes.

    Every entry must be positive and interior entries at least 2 (an
    interior block carries a doubled letter at both ends).
    """
    try:
        p = _entries(entries)
    except ValueError as exc:
        raise ProfileError(str(exc)) from None
    for d in p[1:-1]:
        if d < 2:
            raise ProfileError(f"interior profile entries must be at least 2, found {d}")
    return p


def _check_start_letter(letter: object) -> None:
    """Raise ValueError unless letter is '0' or '1'."""
    if letter not in ("0", "1"):
        raise ValueError(f"start letter must be '0' or '1', not {_echo(letter)}")


def reconstruct(start_letter: str, entries: Iterable[int]) -> str:
    """The unique triple-free word with the given start letter and profile.

    Emits one alternating block per entry; each block begins with the
    letter the previous block ended on, which creates the doubled letter
    at the junction.
    """
    _check_start_letter(start_letter)
    p = validate_profile(entries)
    weight = sum(p)
    if weight > MAX_RECONSTRUCT_LEN:
        raise ProfileError(f"profile weight {weight} exceeds {MAX_RECONSTRUCT_LEN} letters")
    blocks = []
    c = start_letter
    for length in p:
        period = c + ("1" if c == "0" else "0")
        block = (period * ((length + 1) // 2))[:length]
        blocks.append(block)
        c = block[-1]
    return "".join(blocks)


def is_in_l_linear(w: str) -> bool:
    """Linear-time test for avoidance of x x^R x.

    Rejects a word with a 000 in a short prefix at once.
    Otherwise splits the word into its blocks in one linear pass and
    rejects on a valley of the block lengths; a triple letter anywhere
    is a block of length 1 inside the word, so it is such a valley too.
    Agrees with the direct instance scan.
    """
    return is_member(check_word(w).encode("ascii"))


def parse_profile(text: str) -> tuple[int, ...]:
    """Parse "(4,4,4)" back into a tuple; validates the profile shape."""
    return validate_profile(parse_sequence(text))
