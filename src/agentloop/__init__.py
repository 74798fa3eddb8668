"""agentloop: a turn-based brain/hand agent engine with phase-scoped memory,
a verified file-editing toolkit, git-patch change tracking, and a token-cost
model grounded by an event-level simulator."""

from .accounting import (
    TokenModelParams,
    UsageLedger,
    cost_report,
    count_tokens,
    savings,
    simulate_tokens,
    tokens_after,
    tokens_before,
)
from .agents import (
    ExecutionReport,
    TaskSpec,
    ToolCommand,
    ToolRegistry,
    default_registry,
    dispatch_task,
    hand_execute,
    parse_command,
    render_prompt,
)
from .backends import BackendResponse, HttpChatBackend, ScriptedBackend, load_script
from .memory import (
    MemoryKind,
    MemoryRecord,
    MemoryStore,
    Phase,
    export_transcript,
    lint_phase_order,
    lint_transcript,
    parse_response,
)
from .orchestrator import Orchestrator, RunConfig, RunOutcome, RunStatus
from .toolkit import (
    EditOutcome,
    EditRequest,
    GitPatch,
    Sandbox,
    TraceReport,
    apply_patch,
    corrected_edit_loop,
    edit_file,
    ensure_repo,
    locate_anchor,
    replace_function,
    run_command,
    run_traced,
    snap_to_sole_candidate,
    snapshot_patch,
)

__version__ = "0.1.0"
