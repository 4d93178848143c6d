"""The exception hierarchy."""

from __future__ import annotations

import pytest

from repro.errors import (
    BoundViolation,
    EvaluationError,
    ExperimentError,
    InvalidOperation,
    LanguageError,
    LexError,
    ParseError,
    ProtocolError,
    ReproError,
    ServerError,
    SpecificationError,
    TransactionAborted,
    TransactionError,
    UnknownObjectError,
    WorkloadError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            SpecificationError,
            TransactionError,
            TransactionAborted,
            BoundViolation,
            InvalidOperation,
            UnknownObjectError,
            LanguageError,
            LexError,
            ParseError,
            EvaluationError,
            ProtocolError,
            ServerError,
            WorkloadError,
            ExperimentError,
        ],
    )
    def test_everything_is_a_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_key_subtyping(self):
        assert issubclass(BoundViolation, TransactionAborted)
        assert issubclass(UnknownObjectError, InvalidOperation)
        assert issubclass(LexError, LanguageError)
        assert issubclass(ParseError, LanguageError)


class TestPayloads:
    def test_transaction_aborted_carries_reason(self):
        exc = TransactionAborted("boom", transaction_id=7, reason="late-read")
        assert exc.transaction_id == 7
        assert exc.reason == "late-read"

    def test_bound_violation_details(self):
        exc = BoundViolation(
            "over budget",
            transaction_id=3,
            level="company",
            attempted=5_000.0,
            limit=4_000.0,
        )
        assert exc.reason == "bound-violation"
        assert exc.level == "company"
        assert exc.attempted == 5_000.0
        assert exc.limit == 4_000.0

    def test_lex_error_position_in_message(self):
        exc = LexError("bad char", line=3, column=9)
        assert "line 3" in str(exc)
        assert exc.column == 9

    def test_parse_error_optional_line(self):
        with_line = ParseError("oops", line=2)
        without = ParseError("oops")
        assert "line 2" in str(with_line)
        assert "line" not in str(without)

    def test_catch_all_pattern(self):
        # The documented usage: one except clause for the whole library.
        with pytest.raises(ReproError):
            raise BoundViolation("x")
