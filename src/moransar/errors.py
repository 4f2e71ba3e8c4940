"""Exception hierarchy for the moransar package.

Three branches map onto the CLI exit codes: input/validation problems
(exit 1), numerical failures such as identity violations or eigensolver
non-convergence (exit 2), and I/O problems, which are plain OSError
(exit 3).
"""

from __future__ import annotations


class MoranSarError(Exception):
    """Base class for all package-specific errors."""


class InputError(MoranSarError):
    """Invalid or degenerate input data or configuration."""


class NumericalError(MoranSarError):
    """A numerical contract was violated (eigensolver convergence)."""


# ---------------------------------------------------------------------------
# Input / validation errors
# ---------------------------------------------------------------------------

def _where(path: str | None) -> str:
    return "" if path is None else f"{path}: "


class NonPositiveValue(InputError):
    """A size is zero or negative, so its logarithm is undefined."""

    def __init__(self, index: int, value: float, ident: str, path: str | None = None):
        self.index = index
        self.value = value
        self.ident = ident
        self.path = path
        super().__init__(f"{_where(path)}size of id {ident!r} is not positive: {value!r}; "
                         f"the log transform (--log) needs positive sizes")

    def in_file(self, path) -> NonPositiveValue:
        """The same error, naming the sizes file it came from."""
        return NonPositiveValue(self.index, self.value, self.ident, str(path))


class ZeroVariance(InputError):
    """All values are equal; standardization is undefined."""


class PairError(InputError):
    """A distance error at elements i and j (0-based).

    A subclass's ``message`` formats ``pair`` and its ``details``;
    ``in_file`` rebuilds the error naming the distance file and the two
    ids instead of the indices.
    """

    message = ""
    indices = "elements {i} and {j}"
    names = "ids {a!r} and {b!r}"

    def __init__(self, i: int, j: int, *details, ids: tuple[str, ...] | None = None,
                 path: str | None = None):
        self.i = i
        self.j = j
        self.details = details
        pair = (self.indices.format(i=i, j=j) if ids is None
                else self.names.format(a=ids[i], b=ids[j]))
        super().__init__(_where(path) + self.message.format(*details, pair=pair))

    def in_file(self, path, ids) -> PairError:
        """The same error, naming the distance file and the two ids."""
        return type(self)(self.i, self.j, *self.details, ids=ids, path=str(path))


class ZeroDistance(PairError):
    """An off-diagonal distance is zero; its reciprocal is undefined."""

    message = "distance between {pair} is zero"


class AsymmetricInput(PairError):
    """A matrix required to be symmetric differs too much from its transpose."""

    message = "{pair} differ by relative {0:.3e} (strict symmetry requested)"
    indices = "entries ({i},{j}) and ({j},{i})"
    names = "distances from {a!r} to {b!r} and back"

    @property
    def rel_asym(self) -> float:
        return self.details[0]


class DegenerateMatrix(InputError):
    """A proximity matrix with zero total weight cannot be normalized."""


class NegativeDistance(PairError, DegenerateMatrix):
    """An off-diagonal distance is negative."""

    message = "distance between {pair} is negative: {0!r}"

    @property
    def value(self) -> float:
        return self.details[0]


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


class DuplicateId(InputError):
    """An element identifier occurs more than once."""


class IdMismatch(InputError):
    """Size-vector ids and distance-matrix ids do not match."""

    def __init__(self, missing: list[str], extra: list[str],
                 sizes_path: str | None = None, dist_path: str | None = None):
        self.missing = missing
        self.extra = extra
        what = ("size ids do not match distance ids" if sizes_path is None
                else f"ids in {sizes_path} do not match ids in {dist_path}")
        super().__init__(
            f"{what} (missing from sizes: {missing}, unmatched in sizes: {extra})"
        )


class MissingPair(ParseError):
    """A long-format distance list lacks an element pair."""

    def __init__(self, path: str, line: int, id_a: str, id_b: str):
        self.id_a = id_a
        self.id_b = id_b
        super().__init__(path, line, f"no distance given for pair ({id_a}, {id_b})")


class NonSquare(InputError):
    """A matrix-format distance file is not square."""


# ---------------------------------------------------------------------------
# Numerical errors
# ---------------------------------------------------------------------------

class NoConvergence(NumericalError):
    """A Sturm bracket was still wider than its target after the pass budget."""

    def __init__(self, residual: float, sweeps: int, member: int | None = None):
        self.residual = residual
        self.sweeps = sweeps
        self.member = member  # the matrix's index when it was one of a stack
        prefix = "" if member is None else f"stack matrix {member}: "
        super().__init__(
            f"{prefix}eigenvalue brackets did not converge after {sweeps} "
            f"multisection passes (widest bracket {residual:.3e})"
        )
