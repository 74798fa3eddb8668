"""Exception hierarchy for the agent loop."""

from __future__ import annotations


class AgentLoopError(Exception):
    """Base class for all errors raised by this package."""


# --- memory ---

class EmptyResponse(AgentLoopError):
    """Model output was empty after trimming."""


class KindMismatch(AgentLoopError):
    """Response carried an explicit kind marker different from the expected one."""


class DuplicateSingleton(AgentLoopError):
    """A second user-request or mandatory-requirement record was appended."""


class MissingTask(AgentLoopError):
    """Execution-phase retrieval requires a current task record."""


# --- orchestrator ---

class EmptyRequest(AgentLoopError):
    """User request was empty."""


class BackendFailure(AgentLoopError):
    """Backend call failed."""


class BudgetExceeded(AgentLoopError):
    """Projected or accumulated cost crossed the configured cap."""


class TaskFormatError(AgentLoopError):
    """Brain output could not be parsed into a task after reprompting."""


# --- agents ---

class UnknownDomain(AgentLoopError):
    """Tool domain is not registered."""


class FixtureMismatch(AgentLoopError):
    """A scripted backend's script does not fit the run: an entry's expected
    role or prompt substring was not met, or the script ran out."""


# --- toolkit ---

class LineOutOfRange(AgentLoopError):
    """Edit line number exceeds the file length (distinct from an anchor mismatch)."""


class SpawnFailure(AgentLoopError):
    """Sandbox could not spawn the command (empty command, policy, or OS error)."""


class DriverUnavailable(AgentLoopError):
    """No tracing driver exists for this command."""


class NotARepository(AgentLoopError):
    """Workdir is not a git repository."""


class PatchApplyFailure(AgentLoopError):
    """git apply rejected the patch."""


# --- accounting ---

class UnknownModel(AgentLoopError):
    """Pricing table has no entry for the model."""


# --- cli ---

class ConfigError(AgentLoopError):
    """Bad config file or flag combination."""
