"""Rule modules.  Importing this package registers every rule."""

from . import (atomicity, blocking, checkpoint, determinism, excepts,  # noqa: F401
               kernel_state, statesync, timers)  # noqa: F401
