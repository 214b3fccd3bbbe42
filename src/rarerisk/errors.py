"""Exception hierarchy for the rarerisk package."""


class RareRiskError(Exception):
    """Base class for all rarerisk errors."""


class DatasetError(RareRiskError):
    """Problems ingesting or constructing a dataset."""


class NonBinaryValueError(DatasetError):
    """A data cell is not exactly 0 or 1."""

    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"non-binary value {value!r} at data row {row}, column {column!r}"
        )


class SchemaMismatchError(DatasetError):
    """The CSV header lacks the named response column."""


class EmptyFileError(DatasetError):
    """CSV file has no header or no data rows."""


class SynthesisError(RareRiskError):
    """The synthetic generator could not satisfy its target."""


class FitError(RareRiskError):
    """A model fit cannot proceed (bad inputs, degenerate response)."""


class SingularMatrixError(FitError):
    """The working matrix of a solver is singular."""

    def __init__(self, message: str, columns: list[str] | None = None):
        self.columns = columns or []
        super().__init__(message)


class StratificationError(FitError):
    """Cross-validation folds cannot contain both classes."""


class GeneticError(RareRiskError):
    """Genetic-search failure (non-finite fitness, bad operator input)."""


class ClusteringError(RareRiskError):
    """Invalid dissimilarity input or dendrogram operation."""


class ConfigError(RareRiskError):
    """Pipeline configuration is missing, malformed, or inconsistent."""


class StageError(RareRiskError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


class RenderError(RareRiskError):
    """Figure or report rendering failed."""


class ArtifactError(RareRiskError):
    """An artifact file could not be written."""
