"""Exception hierarchy for the moransar package.

Three branches map onto the CLI exit codes: input/validation problems
(exit 1), numerical failures such as identity violations or eigensolver
non-convergence (exit 2), and I/O problems, which are plain OSError
(exit 3).
"""

from __future__ import annotations

from contextlib import contextmanager


class MoranSarError(Exception):
    """Base class for all package-specific errors."""


class InputError(MoranSarError):
    """Invalid or degenerate input data or configuration.

    A data error found after parsing lists in ``concerns`` the input
    files it is about, "sizes" and/or "dist"; ``located`` rewrites it to
    name them.
    """

    concerns: tuple[str, ...] = ()

    def in_files(self, paths: dict[str, str], ids: tuple[str, ...]) -> str:
        """The message naming the file this error concerns; ``paths`` maps
        "sizes" and "dist" to file names, ``ids`` names the elements."""
        return f"{paths[self.concerns[0]]}: {self}"


class NumericalError(MoranSarError):
    """A numerical contract was violated (eigensolver convergence)."""


# ---------------------------------------------------------------------------
# Input / validation errors
# ---------------------------------------------------------------------------

@contextmanager
def located(*, ids: tuple[str, ...], sizes=None, dist=None):
    """Run the body; an InputError it raises that concerns the sizes file
    ``sizes`` or the distance file ``dist`` (elements named by ``ids``)
    propagates naming them. An error that concerns no file, or a file not
    given, propagates unchanged."""
    try:
        yield
    except InputError as exc:
        paths = {"sizes": sizes, "dist": dist}
        if exc.concerns and all(paths[k] is not None for k in exc.concerns):
            exc.args = (exc.in_files({k: str(v) for k, v in paths.items()}, ids),)
        raise


class NonPositiveValue(InputError):
    """A size is zero or negative, so its logarithm is undefined."""

    concerns = ("sizes",)

    def __init__(self, index: int, value: float, ident: str):
        self.index = index
        self.value = value
        self.ident = ident
        super().__init__(f"size of id {ident!r} is not positive: {value!r}; "
                         f"the log transform (--log) needs positive sizes")


class ZeroVariance(InputError):
    """All values are equal; standardization is undefined."""

    concerns = ("sizes",)


class PairError(InputError):
    """A distance error at elements i and j (0-based).

    A subclass's ``message`` formats ``pair`` and its ``details``; the
    located message names the two ids instead of the indices.
    """

    concerns = ("dist",)
    message = ""
    indices = "elements {i} and {j}"
    names = "ids {a!r} and {b!r}"

    def __init__(self, i: int, j: int, *details):
        self.i = i
        self.j = j
        self.details = details
        super().__init__(self.message.format(*details, pair=self.indices.format(i=i, j=j)))

    def in_files(self, paths, ids) -> str:
        pair = self.names.format(a=ids[self.i], b=ids[self.j])
        return f"{paths['dist']}: " + self.message.format(*self.details, pair=pair)


class ZeroDistance(PairError):
    """An off-diagonal distance is zero; its reciprocal is undefined."""

    message = "distance between {pair} is zero"


class AsymmetricInput(PairError):
    """A matrix required to be symmetric differs too much from its transpose."""

    message = "{pair} differ by relative {0:.3e}"
    indices = "entries ({i},{j}) and ({j},{i})"
    names = "distances from {a!r} to {b!r} and back"

    @property
    def rel_asym(self) -> float:
        return self.details[0]


class StrictAsymmetry(AsymmetricInput):
    """Asymmetric distances under the strict symmetry policy."""

    message = AsymmetricInput.message + " (strict symmetry requested)"


class DegenerateMatrix(InputError):
    """A proximity matrix with zero total weight cannot be normalized."""

    concerns = ("dist",)


class NegativeDistance(PairError, DegenerateMatrix):
    """An off-diagonal distance is negative."""

    message = "distance between {pair} is negative: {0!r}"

    @property
    def value(self) -> float:
        return self.details[0]


class TinyDistance(PairError):
    """An off-diagonal distance is subnormal (below 2**-1022): its
    reciprocal, or that plus its mirror's, overflows."""

    message = "distance between {pair} is too small to invert: {0!r}"


class DimensionMismatch(InputError):
    """Vector/matrix dimensions do not agree."""


class DegenerateRegression(InputError):
    """The regressor is constant; the slope is undefined."""


class DegenerateLag(InputError):
    """The spatial lag vector is constant; the autoregression is undefined."""


class ZeroMoran(InputError):
    """Moran's index is zero; a closed form dividing by it is undefined."""


class ZeroRSquared(InputError):
    """R-squared is (numerically) zero; an identity dividing by it degenerates."""


class DegenerateSE(InputError):
    """A standard error of zero (exact fit) makes the t statistic undefined."""


class NotSymmetric(InputError):
    """The eigensolver was handed a matrix that is not symmetric."""


class MissingCriticalValues(InputError):
    """No Durbin-Watson critical values for the requested (n, alpha)."""

    def __init__(self, n: int, alpha: float):
        self.n = n
        self.alpha = alpha
        super().__init__(
            f"no Durbin-Watson critical values for n={n}, alpha={alpha}; "
            f"supply them via a critical-values CSV"
        )


class SingularResolvent(InputError):
    """rho equals a reciprocal eigenvalue of W; (Id - rho W) is singular."""


class DegenerateZeroField(InputError):
    """Simulation with zero intercept and zero noise yields the zero vector."""


class ParseError(InputError):
    """A CSV input file could not be parsed."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class DuplicateId(ParseError):
    """An element identifier occurs more than once."""


class IdMismatch(InputError):
    """Size-vector ids and distance-matrix ids do not match."""

    concerns = ("sizes", "dist")

    def __init__(self, missing: list[str], extra: list[str]):
        self.missing = missing
        self.extra = extra
        self._lists = f"(missing from sizes: {missing}, unmatched in sizes: {extra})"
        super().__init__(f"size ids do not match distance ids {self._lists}")

    def in_files(self, paths, ids) -> str:
        return f"ids in {paths['sizes']} do not match ids in {paths['dist']} {self._lists}"


class MissingPair(ParseError):
    """A long-format distance list lacks an element pair."""

    def __init__(self, path: str, line: int, id_a: str, id_b: str):
        self.id_a = id_a
        self.id_b = id_b
        super().__init__(path, line, f"no distance given for pair ({id_a}, {id_b})")


class NonSquare(ParseError):
    """A matrix-format distance file is not square."""


# ---------------------------------------------------------------------------
# Numerical errors
# ---------------------------------------------------------------------------

class NoConvergence(NumericalError):
    """A Sturm bracket was still wider than its target after the pass budget."""

    def __init__(self, widest: float, sweeps: int, member: int | None = None):
        self.widest = widest
        self.sweeps = sweeps
        self.member = member  # the matrix's index when it was one of a stack
        prefix = "" if member is None else f"stack matrix {member}: "
        super().__init__(
            f"{prefix}eigenvalue brackets did not converge after {sweeps} "
            f"multisection passes (widest bracket {widest:.3e})"
        )
