"""Resilience: fault-isolated client hooks ("drguard") and runtime
self-protection with a failsafe escalation ladder ("drshield"), plus
deterministic fault injection for testing both.

The client guard wraps every client hook site in the runtime and
executor.  A client exception (other than a deliberate
:class:`ClientHalt`) or a hook-budget overrun is attributed to the
client: the fragment is re-emitted verbatim (the client's transform
discarded) and after ``guard.FAULT_LIMIT`` faults the client
is quarantined — all its hooks are disabled and the run continues at
native fidelity, the software analogue of an OSR bailout to baseline
code.

The shield (``options.shield``) protects the runtime from the
*application* (errant stores into the code cache, exit stubs, IBL
tables, or runtime scratch are trapped, attributed, and recovered by
invalidating only the clobbered unit) and from *itself* (internal
faults at the build/emit/link/unlink/evict/trace chokepoints
climb an escalation ladder: retry → discard → flush → disable the
faulting subsystem → detach to native).
"""

from repro.resilience.guard import (
    RUNTIME_PASSTHROUGH,
    ClientGuard,
    ClientHalt,
    HookBudgetExceeded,
)
from repro.resilience.shield import (
    RUNTIME_SITES,
    InjectedRuntimeFault,
    RuntimeGuard,
    Shield,
)

__all__ = [
    "ClientGuard",
    "ClientHalt",
    "HookBudgetExceeded",
    "InjectedRuntimeFault",
    "RuntimeGuard",
    "RUNTIME_PASSTHROUGH",
    "RUNTIME_SITES",
    "Shield",
]
