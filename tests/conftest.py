"""Keep hypothesis's storage (its example database, constants and unicode
caches) out of the working directory: it reads this variable on first use."""

import os
import tempfile

_STORAGE = tempfile.TemporaryDirectory(prefix="clsibound-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _STORAGE.name
