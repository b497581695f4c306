"""Exception types shared across the factmine package."""


class FactmineError(Exception):
    """Base class for all factmine errors."""


class MalformedRecord(FactmineError):
    def __init__(self, line_no, reason):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class InvalidConfig(FactmineError, ValueError):
    """An option or argument value out of its allowed range or of the wrong type."""


class UnknownId(FactmineError, KeyError):
    def __init__(self, report_id):
        self.report_id = report_id
        super().__init__(f"unknown report_id {report_id!r}")

    __str__ = FactmineError.__str__  # KeyError would repr the message


def _at(line_no):
    return "" if line_no is None else f"line {line_no}: "


class DuplicateId(FactmineError):
    def __init__(self, report_id, line_no=None):
        self.report_id = report_id
        self.line_no = line_no
        super().__init__(f"{_at(line_no)}duplicate report_id {report_id!r}")


class DimensionMismatch(FactmineError):
    pass


class CheckpointMismatch(FactmineError):
    """An index used with a checkpoint other than the one it was built from."""


class UnknownLabelArity(FactmineError):
    def __init__(self, got, line_no=None):
        self.got = got
        self.line_no = line_no
        super().__init__(f"{_at(line_no)}label vector must have 5 entries, got {got}")


class LengthMismatch(FactmineError):
    pass


class EmptyTrainSplit(FactmineError):
    pass


class DegenerateEmbedding(FactmineError):
    pass


class MissingTextFeatures(FactmineError):
    def __init__(self, doc_id):
        self.doc_id = doc_id
        super().__init__(f"document {doc_id!r} has no text features")


class NonFiniteLoss(FactmineError):
    pass


class NoPositives(FactmineError):
    pass


class DivergedLoss(FactmineError):
    pass


class EmptyCandidateSet(FactmineError):
    pass


class MissingResult(FactmineError):
    def __init__(self, query_id):
        self.query_id = query_id
        super().__init__(f"no retrieval result for query {query_id!r}")


class MalformedArtifact(FactmineError):
    def __init__(self, path, reason):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{path}: {reason}")
